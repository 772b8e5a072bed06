//! A small blocking client for the wire protocol, shared by the load
//! generator, the CLI's remote mode, the examples and the tests.

use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::{TcpStream, ToSocketAddrs};

use crate::json::{parse, Json};

/// A client-side protocol error.
#[derive(Debug)]
pub enum ClientError {
    /// Transport failure.
    Io(std::io::Error),
    /// The server sent something that is not a JSON frame.
    Protocol(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "io error: {e}"),
            ClientError::Protocol(m) => write!(f, "protocol error: {m}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

/// A blocking connection speaking newline-delimited JSON.
#[derive(Debug)]
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    /// The request frame being serialised and the reply line being read:
    /// both buffers live as long as the connection, not per request.
    frame: Vec<u8>,
    line: String,
}

impl Client {
    /// Connects to a server.
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let write_half = stream.try_clone()?;
        Ok(Client {
            reader: BufReader::new(stream),
            writer: BufWriter::new(write_half),
            frame: Vec::new(),
            line: String::new(),
        })
    }

    /// Sends one frame and reads one response frame.
    pub fn request(&mut self, req: &Json) -> Result<Json, ClientError> {
        self.send(req)?;
        self.flush()?;
        self.read_frame()
    }

    /// Queues one request frame without flushing or reading a response —
    /// the building block of pipelining. Follow with more [`send`]s, then
    /// [`flush`] and one [`read_frame`] per queued request (responses come
    /// back strictly in request order).
    ///
    /// [`send`]: Client::send
    /// [`flush`]: Client::flush
    /// [`read_frame`]: Client::read_frame
    pub fn send(&mut self, req: &Json) -> Result<(), ClientError> {
        self.frame.clear();
        req.write_to(&mut self.frame);
        self.frame.push(b'\n');
        self.writer.write_all(&self.frame)?;
        Ok(())
    }

    /// Queues every frame and flushes them as one write burst. Responses
    /// are not read; call [`read_frame`](Client::read_frame) once per
    /// request, in order.
    pub fn send_all(&mut self, reqs: &[Json]) -> Result<(), ClientError> {
        for req in reqs {
            self.send(req)?;
        }
        self.flush()
    }

    /// Flushes queued request frames to the socket.
    pub fn flush(&mut self) -> Result<(), ClientError> {
        self.writer.flush()?;
        Ok(())
    }

    /// Pipelines a batch: all requests go out in one write, then all
    /// responses are read back, in request order. One transport error
    /// fails the whole batch (per-frame protocol errors arrive as error
    /// frames inside the returned vector, not as `Err`).
    pub fn pipeline(&mut self, reqs: &[Json]) -> Result<Vec<Json>, ClientError> {
        self.send_all(reqs)?;
        reqs.iter().map(|_| self.read_frame()).collect()
    }

    /// Sends one raw line and reads one response frame (test/debug path).
    pub fn raw_line(&mut self, line: &str) -> Result<Json, ClientError> {
        writeln!(self.writer, "{line}")?;
        self.writer.flush()?;
        self.read_frame()
    }

    /// Reads one response frame without sending anything (used when the
    /// server speaks first, e.g. a connection-limit rejection).
    pub fn read_frame(&mut self) -> Result<Json, ClientError> {
        self.line.clear();
        let n = self.reader.read_line(&mut self.line)?;
        if n == 0 {
            return Err(ClientError::Protocol("server closed the connection".into()));
        }
        parse(self.line.trim()).map_err(|e| ClientError::Protocol(e.to_string()))
    }

    /// Executes one SQL statement (text mode).
    pub fn sql(&mut self, sql: &str) -> Result<Json, ClientError> {
        self.request(&Json::obj([("sql", Json::Str(sql.to_owned()))]))
    }

    /// Prepares a statement (protocol v2); the response carries `stmt_id`
    /// and `param_count`.
    pub fn prepare(&mut self, sql: &str) -> Result<Json, ClientError> {
        self.request(&Json::obj([("prepare", Json::Str(sql.to_owned()))]))
    }

    /// Executes a prepared statement by id with positional parameters
    /// (protocol v2).
    pub fn execute(&mut self, stmt_id: u64, params: Vec<Json>) -> Result<Json, ClientError> {
        self.request(&Json::obj([(
            "execute",
            Json::obj([("id", Json::Int(stmt_id as i64)), ("params", Json::Array(params))]),
        )]))
    }

    /// Deallocates a prepared statement (protocol v2).
    pub fn close_stmt(&mut self, stmt_id: u64) -> Result<Json, ClientError> {
        self.request(&Json::obj([("close", Json::Int(stmt_id as i64))]))
    }

    /// Fetches the server's `stats` payload.
    pub fn stats(&mut self) -> Result<Json, ClientError> {
        let r = self.request(&Json::obj([("cmd", Json::Str("stats".into()))]))?;
        r.get("stats")
            .cloned()
            .ok_or_else(|| ClientError::Protocol("stats frame missing payload".into()))
    }

    /// Fetches the Prometheus text-format metrics body.
    pub fn metrics(&mut self) -> Result<String, ClientError> {
        let r = self.request(&Json::obj([("cmd", Json::Str("metrics".into()))]))?;
        r.get("metrics")
            .and_then(Json::as_str)
            .map(str::to_owned)
            .ok_or_else(|| ClientError::Protocol("metrics frame missing payload".into()))
    }

    /// Fetches the slow-query log payload (`threshold_ms` + `entries`,
    /// newest first).
    pub fn slowlog(&mut self) -> Result<Json, ClientError> {
        let r = self.request(&Json::obj([("cmd", Json::Str("slowlog".into()))]))?;
        r.get("slowlog")
            .cloned()
            .ok_or_else(|| ClientError::Protocol("slowlog frame missing payload".into()))
    }
}
