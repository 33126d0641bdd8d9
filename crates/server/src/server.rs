//! The threaded TCP front end: an accept loop handing each connection its
//! own [`Session`] thread over the shared engine.
//!
//! One thread per connection is the right shape here: sessions are
//! long-lived, the engine underneath is the concurrency story (sharded
//! plan cache, catalog read-snapshots, atomic admission), and a blocking
//! read loop per socket keeps the protocol code trivially correct. The
//! handle's [`ServerHandle::stop`] wakes the accept loop with a
//! self-connection (the portable std trick), shuts down live sockets, and
//! joins every thread, so tests and benches can bring a server up and down
//! repeatedly in one process without leaking threads. A session that ends
//! closes its socket at once, and a panic while serving a request is that
//! request's typed error, not the session's end.

use crate::protocol::{encode_reply, read_frame, write_frame, Reply};
use crate::session::Session;
use mylite::{CostBasedOptimizer, Engine};
use std::collections::HashMap;
use std::io;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use taurus_common::error::Error;
use taurus_common::sync::lock;

/// The multi-session SQL server.
pub struct Server;

/// Shared accept-loop state.
struct Shared {
    engine: Arc<Engine>,
    optimizer: Arc<dyn CostBasedOptimizer + Send + Sync>,
    stopping: AtomicBool,
    next_session: AtomicU64,
    /// Live client sockets by session id, shut down on stop so session
    /// threads unblock; a session removes its own when it ends.
    conns: Mutex<HashMap<u64, TcpStream>>,
    /// Session threads, joined on stop; finished ones are dropped as new
    /// connections arrive.
    workers: Mutex<Vec<JoinHandle<()>>>,
}

/// A running server. Dropping the handle without calling
/// [`ServerHandle::stop`] leaves the server running for the life of the
/// process (threads are detached only from the handle, not the OS).
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    acceptor: Option<JoinHandle<()>>,
}

impl Server {
    /// Bind `127.0.0.1` on an ephemeral port and start serving.
    pub fn start(
        engine: Arc<Engine>,
        optimizer: Arc<dyn CostBasedOptimizer + Send + Sync>,
    ) -> io::Result<ServerHandle> {
        Server::bind("127.0.0.1:0", engine, optimizer)
    }

    /// Bind an explicit address and start serving.
    pub fn bind(
        addr: &str,
        engine: Arc<Engine>,
        optimizer: Arc<dyn CostBasedOptimizer + Send + Sync>,
    ) -> io::Result<ServerHandle> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let shared = Arc::new(Shared {
            engine,
            optimizer,
            stopping: AtomicBool::new(false),
            next_session: AtomicU64::new(1),
            conns: Mutex::new(HashMap::new()),
            workers: Mutex::new(Vec::new()),
        });
        let acceptor = {
            let shared = shared.clone();
            std::thread::spawn(move || accept_loop(listener, shared))
        };
        Ok(ServerHandle { addr: local, shared, acceptor: Some(acceptor) })
    }
}

impl ServerHandle {
    /// The address clients connect to (useful with the `:0` default).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting, hang up every live session, and join all threads.
    pub fn stop(mut self) {
        self.shared.stopping.store(true, Ordering::SeqCst);
        // Wake the blocking accept with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(t) = self.acceptor.take() {
            let _ = t.join();
        }
        // Hang up live sessions so their read loops see EOF.
        for (_, conn) in lock(&self.shared.conns).drain() {
            let _ = conn.shutdown(Shutdown::Both);
        }
        let workers: Vec<_> = std::mem::take(&mut *lock(&self.shared.workers));
        for w in workers {
            let _ = w.join();
        }
    }
}

fn accept_loop(listener: TcpListener, shared: Arc<Shared>) {
    loop {
        let stream = match listener.accept() {
            Ok((s, _)) => s,
            Err(_) => {
                if shared.stopping.load(Ordering::SeqCst) {
                    return;
                }
                continue;
            }
        };
        if shared.stopping.load(Ordering::SeqCst) {
            return;
        }
        // Request/reply traffic: never trade latency for batching.
        let _ = stream.set_nodelay(true);
        let id = shared.next_session.fetch_add(1, Ordering::Relaxed);
        if let Ok(clone) = stream.try_clone() {
            lock(&shared.conns).insert(id, clone);
        }
        let worker = {
            let shared = shared.clone();
            std::thread::spawn(move || serve_connection(stream, id, shared))
        };
        let mut workers = lock(&shared.workers);
        workers.retain(|w| !w.is_finished());
        workers.push(worker);
    }
}

/// Removes its session's socket from [`Shared::conns`] however the session
/// ends, so the connection closes with it.
struct ConnGuard<'a>(&'a Shared, u64);

impl Drop for ConnGuard<'_> {
    fn drop(&mut self) {
        lock(&self.0.conns).remove(&self.1);
    }
}

/// One connection's blocking serve loop: frame in, dispatch, frame out.
fn serve_connection(mut stream: TcpStream, id: u64, shared: Arc<Shared>) {
    let _conn = ConnGuard(&shared, id);
    let mut session = Session::new(id, shared.engine.clone(), shared.optimizer.clone());
    loop {
        let payload = match read_frame(&mut stream) {
            Ok(Some(p)) => p,
            // Clean hangup or a broken socket: either way the session ends.
            Ok(None) | Err(_) => return,
        };
        let reply = match crate::protocol::decode_request(&payload) {
            Ok(req) => match catch_unwind(AssertUnwindSafe(|| session.dispatch(req))) {
                Ok(Some(r)) => r,
                Ok(None) => return, // Quit
                Err(_) => Reply::Err(Error::internal("panic while serving the request")),
            },
            // Malformed frame: report it and keep the session alive — the
            // framing layer is still in sync (we read a whole frame).
            Err(e) => Reply::Err(e),
        };
        if write_frame(&mut stream, &encode_reply(&reply)).is_err() {
            return;
        }
    }
}
