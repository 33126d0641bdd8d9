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
//! repeatedly in one process without leaking threads.

use crate::protocol::{encode_reply, read_frame, write_frame, Reply};
use crate::session::Session;
use mylite::{CostBasedOptimizer, Engine};
use std::io;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use taurus_common::sync::lock;

/// The multi-session SQL server.
pub struct Server;

/// Shared accept-loop state.
struct Shared {
    engine: Arc<Engine>,
    optimizer: Arc<dyn CostBasedOptimizer + Send + Sync>,
    stopping: AtomicBool,
    next_session: AtomicU64,
    /// Live client sockets, shut down on stop so session threads unblock.
    conns: Mutex<Vec<TcpStream>>,
    /// Session threads, joined on stop.
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
            conns: Mutex::new(Vec::new()),
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
        for conn in lock(&self.shared.conns).drain(..) {
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
            lock(&shared.conns).push(clone);
        }
        let worker = {
            let shared = shared.clone();
            std::thread::spawn(move || serve_connection(stream, id, shared))
        };
        lock(&shared.workers).push(worker);
    }
}

/// One connection's blocking serve loop: frame in, dispatch, frame out.
fn serve_connection(mut stream: TcpStream, id: u64, shared: Arc<Shared>) {
    let mut session = Session::new(id, shared.engine.clone(), shared.optimizer.clone());
    loop {
        let payload = match read_frame(&mut stream) {
            Ok(Some(p)) => p,
            // Clean hangup or a broken socket: either way the session ends.
            Ok(None) | Err(_) => return,
        };
        let reply = match crate::protocol::decode_request(&payload) {
            Ok(req) => match session.dispatch(req) {
                Some(r) => r,
                None => return, // Quit
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
