//! Nonblocking connection machinery for the shard event loops.
//!
//! Each accepted socket becomes a [`Conn`] owned by exactly one shard:
//! only the owner reads from the socket, decodes frames, and flushes
//! replies. What *crosses* shards is the [`Outbox`]: a request decoded
//! on the owning shard may execute on the session's home shard, which
//! completes the reply into the connection's outbox from its own
//! thread. The outbox allocates a sequence number per decoded frame
//! (in decode order) and releases encoded replies to the socket only
//! in contiguous sequence order — so replies always come back in
//! request order, no matter which shard executed what, or how long an
//! eviction-resume made one request take.
//!
//! There is no epoll here by design (no new dependencies): sockets are
//! `std::net` nonblocking, the shard loop try-reads every connection
//! each pass, and parks briefly when a pass does no work. That trades
//! one idle quantum per round trip for complete portability; a shard
//! that completes a reply into another shard's outbox wakes that
//! shard, so the hop back costs no second quantum.

use crate::protocol::{FrameBuf, Reply, Request, Role};
use std::collections::BTreeMap;
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::sync::{Arc, Mutex, MutexGuard};

/// Per-connection reply sequencer, shared between the owning shard
/// (allocation + flush) and executing shards (completion).
#[derive(Default)]
pub struct Outbox {
    inner: Mutex<OutboxInner>,
}

#[derive(Default)]
struct OutboxInner {
    /// Next sequence number to hand out (one per decoded frame).
    next_alloc: u64,
    /// Next sequence number to release to the write buffer.
    next_release: u64,
    /// Completed replies waiting for their turn, by sequence number.
    done: BTreeMap<u64, String>,
    /// Framed bytes ready to write.
    wbuf: Vec<u8>,
    /// Write cursor into `wbuf`.
    wat: usize,
}

impl OutboxInner {
    /// Move contiguously completed replies into the write buffer.
    fn release(&mut self) {
        while let Some(text) = self.done.remove(&self.next_release) {
            self.wbuf
                .extend_from_slice(&(text.len() as u32).to_le_bytes());
            self.wbuf.extend_from_slice(text.as_bytes());
            self.next_release += 1;
        }
        if self.wat > 0 && self.wat == self.wbuf.len() {
            self.wbuf.clear();
            self.wat = 0;
        }
    }
}

impl Outbox {
    /// A fresh outbox.
    pub fn new() -> Arc<Outbox> {
        Arc::new(Outbox::default())
    }

    fn lock(&self) -> MutexGuard<'_, OutboxInner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Reserve the next reply slot (owner, at decode time).
    pub fn alloc(&self) -> u64 {
        let mut st = self.lock();
        let seq = st.next_alloc;
        st.next_alloc += 1;
        seq
    }

    /// Complete slot `seq` with a reply (any shard, at execute time).
    pub fn complete(&self, seq: u64, reply: &Reply) {
        let mut st = self.lock();
        st.done.insert(seq, reply.encode());
        st.release();
    }

    /// True while any allocated slot has not yet been written out.
    pub fn pending(&self) -> bool {
        let st = self.lock();
        st.next_release < st.next_alloc || st.wat < st.wbuf.len()
    }
}

/// One nonblocking client connection, owned by a shard loop.
pub struct Conn {
    stream: TcpStream,
    frames: FrameBuf,
    /// The reply sequencer (shared with executing shards).
    pub outbox: Arc<Outbox>,
    /// Role declared by the `(hello …)` handshake, once seen.
    pub role: Option<Role>,
    /// Peer finished sending (clean EOF seen).
    pub eof: bool,
    /// Connection is broken or protocol-violating; close after the
    /// current flush attempt.
    pub dead: bool,
    /// Close once every allocated reply has been flushed (set after a
    /// fatal-but-replied condition like a version-mismatch handshake).
    pub close_after_flush: bool,
}

impl Conn {
    /// Adopt an accepted socket: switch it to nonblocking and wrap it.
    pub fn adopt(stream: TcpStream) -> io::Result<Conn> {
        stream.set_nonblocking(true)?;
        stream.set_nodelay(true)?;
        Ok(Conn {
            stream,
            frames: FrameBuf::new(),
            outbox: Outbox::new(),
            role: None,
            eof: false,
            dead: false,
            close_after_flush: false,
        })
    }

    /// Read the socket dry into the frame buffer. EOF mid-frame or an
    /// I/O error marks the connection dead.
    pub fn fill(&mut self) {
        if self.dead || self.eof {
            return;
        }
        let mut buf = [0u8; 4096];
        loop {
            match self.stream.read(&mut buf) {
                Ok(0) => {
                    self.eof = true;
                    if self.frames.has_partial() {
                        self.dead = true; // torn mid-frame
                    }
                    break;
                }
                Ok(n) => self.frames.extend(&buf[..n]),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.dead = true;
                    break;
                }
            }
        }
    }

    /// Pop and decode the next buffered request without materializing
    /// the frame text: the bytes are borrowed straight from the
    /// receive buffer and only the typed [`Request`] (or the typed
    /// error [`Reply`] to send back) is owned. Protocol damage
    /// (oversized frame, non-UTF-8) marks the connection dead and ends
    /// the stream. Call [`Conn::fill`] first.
    pub fn next_request(&mut self) -> Option<Result<Request, Reply>> {
        match self.frames.pop_ref() {
            Ok(Some(text)) => Some(Request::decode(text)),
            Ok(None) => None,
            Err(_) => {
                self.dead = true;
                None
            }
        }
    }

    /// Drain everything currently readable into complete owned frames.
    /// Protocol damage (oversized frame, non-UTF-8, torn EOF) marks
    /// the connection dead. The shard loops use the allocation-free
    /// [`Conn::fill`] + [`Conn::next_request`] pair instead; this
    /// remains for callers that want the raw text.
    pub fn read_frames(&mut self) -> Vec<String> {
        self.fill();
        let mut out = Vec::new();
        loop {
            match self.frames.pop() {
                Ok(Some(text)) => out.push(text),
                Ok(None) => break,
                Err(_) => {
                    self.dead = true;
                    break;
                }
            }
        }
        out
    }

    /// Write as much buffered reply data as the socket accepts.
    /// Returns `true` while data remains pending (buffered or awaiting
    /// out-of-order completions).
    pub fn flush(&mut self) -> bool {
        if self.dead {
            return false;
        }
        let mut st = self.outbox.lock();
        st.release();
        while st.wat < st.wbuf.len() {
            match self.stream.write(&st.wbuf[st.wat..]) {
                Ok(0) => {
                    self.dead = true;
                    return false;
                }
                Ok(n) => st.wat += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.dead = true;
                    return false;
                }
            }
        }
        if st.wat == st.wbuf.len() {
            st.wbuf.clear();
            st.wat = 0;
        }
        st.wat < st.wbuf.len() || st.next_release < st.next_alloc
    }

    /// Whether the owner should retire this connection: broken, or
    /// finished (EOF / fatal-replied) with nothing left to flush.
    pub fn finished(&self) -> bool {
        if self.dead {
            return true;
        }
        (self.eof || self.close_after_flush) && !self.outbox.pending()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{read_frame, write_frame, Request};
    use std::net::TcpListener;

    #[test]
    fn outbox_releases_replies_in_sequence_order() {
        let outbox = Outbox::new();
        let a = outbox.alloc();
        let b = outbox.alloc();
        let c = outbox.alloc();
        assert_eq!((a, b, c), (0, 1, 2));
        // Complete out of order; nothing is released until 0 lands.
        outbox.complete(c, &Reply::Draining);
        outbox.complete(a, &Reply::Opened { id: 9 });
        outbox.complete(b, &Reply::Closed { occupancy: 0 });
        let st = outbox.lock();
        assert!(st.done.is_empty(), "all released");
        // The write buffer holds the three frames in 0,1,2 order.
        let mut r = &st.wbuf[..];
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), "(ok opened 9)");
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), "(ok closed 0)");
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), "(ok draining)");
    }

    #[test]
    fn conn_reads_pipelined_frames_and_flushes_replies() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut peer = TcpStream::connect(addr).unwrap();
        let (accepted, _) = listener.accept().unwrap();
        let mut conn = Conn::adopt(accepted).unwrap();

        // Pipelined requests in one write.
        write_frame(&mut peer, &Request::Open { token: None }.encode()).unwrap();
        write_frame(&mut peer, &Request::Stats.encode()).unwrap();
        // Wait on progress, not wall-clock: loopback delivery is not
        // instant, but any poll that yields a frame resets the
        // patience counter, so only a genuine stall can fail — and a
        // slow machine cannot.
        let mut seen = Vec::new();
        let mut idle_polls = 0u32;
        while seen.len() < 2 && idle_polls < 10_000 {
            let got = conn.read_frames();
            if got.is_empty() {
                idle_polls += 1;
                std::thread::sleep(std::time::Duration::from_millis(1));
            } else {
                idle_polls = 0;
                seen.extend(got);
            }
        }
        assert_eq!(seen, vec!["(open)".to_string(), "(stats)".to_string()]);

        let s0 = conn.outbox.alloc();
        let s1 = conn.outbox.alloc();
        conn.outbox.complete(s1, &Reply::Draining);
        assert!(conn.flush(), "seq 0 still outstanding");
        conn.outbox.complete(s0, &Reply::Opened { id: 3 });
        while conn.flush() {}
        assert_eq!(read_frame(&mut peer).unwrap().unwrap(), "(ok opened 3)");
        assert_eq!(read_frame(&mut peer).unwrap().unwrap(), "(ok draining)");
        assert!(!conn.finished(), "peer has not hung up");
        drop(peer);
        while !conn.read_frames().is_empty() {}
        assert!(conn.finished(), "clean EOF with empty outbox");
    }
}
