//! One pipeline stage: a named, long-lived thread that owns a worker's
//! state and reads its messages, in order, off a bounded channel — the
//! shape of SEDA's stages. The round loop runs three: the network's
//! replicas (`dragoon_net::NetFeed`), the block writer
//! ([`crate::BlockStore::with_background_writer`]) and the registry's
//! overlapped settlement verifier.
//!
//! The owner [`Stage::send`]s messages, [`Stage::request`]s an answer
//! through a one-shot [`Reply`] and [`Stage::wait`]s for it, and
//! [`Stage::finish`]es: the channel closes, the thread is joined and the
//! worker's final value comes back. Dropping a stage closes and joins
//! without a final message: the worker handles what is queued and stops.
//!
//! One failure rule: a panic on the thread is raised again on the
//! owner's, with its payload, at the next `send`, `wait` or `finish`.
//! `Drop` swallows it, because the owner's own panic is then in flight.
//! An error the worker returns stays a value: that call and every later
//! one yields it.

use std::convert::Infallible;
use std::panic::resume_unwind;
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::thread::JoinHandle;

/// The worker's half of a one-shot answer, carried in a message.
pub struct Reply<R>(SyncSender<R>);

impl<R> Reply<R> {
    /// Answers the request. An owner that stopped waiting is no error.
    pub fn send(self, answer: R) {
        let _ = self.0.send(answer);
    }
}

/// The owner's half of a request: [`Stage::wait`] takes the answer.
pub struct Answer<R>(Receiver<R>);

/// The owner's end of a worker thread that reads `M`s and returns
/// `Result<T, E>` (see the module docs).
pub struct Stage<M, T, E = Infallible> {
    /// `None` once the channel is closed.
    sender: Option<SyncSender<M>>,
    /// `None` once joined.
    thread: Option<JoinHandle<Result<T, E>>>,
    /// The error the worker returned, once joined.
    error: Option<E>,
}

impl<M: Send + 'static, T: Send + 'static, E: Send + 'static> Stage<M, T, E> {
    /// Runs `work` on a thread named `name`, reading a channel that
    /// holds up to `bound` messages.
    pub fn spawn(
        name: &str,
        bound: usize,
        work: impl FnOnce(Receiver<M>) -> Result<T, E> + Send + 'static,
    ) -> Self {
        let (sender, inbox) = sync_channel(bound);
        let thread = std::thread::Builder::new()
            .name(name.into())
            .spawn(move || work(inbox))
            .expect("spawning a stage thread must succeed");
        Self {
            sender: Some(sender),
            thread: Some(thread),
            error: None,
        }
    }
}

impl<M, T, E: Clone> Stage<M, T, E> {
    /// Queues one message; a full channel blocks.
    pub fn send(&mut self, msg: M) -> Result<(), E> {
        match self.sender.as_ref().map(|sender| sender.send(msg)) {
            Some(Ok(())) => Ok(()),
            _ => Err(self.stopped()),
        }
    }

    /// Queues the message `ask` builds around a fresh [`Reply`].
    pub fn request<R>(&mut self, ask: impl FnOnce(Reply<R>) -> M) -> Result<Answer<R>, E> {
        let (reply, answer) = sync_channel(1);
        self.send(ask(Reply(reply)))?;
        Ok(Answer(answer))
    }

    /// Blocks until the worker answers `answer`'s request.
    pub fn wait<R>(&mut self, answer: Answer<R>) -> Result<R, E> {
        answer.0.recv().map_err(|_| self.stopped())
    }

    /// Closes the channel, joins the thread and returns the worker's
    /// final value.
    pub fn finish(mut self) -> Result<T, E> {
        self.join()
    }

    /// Closes the channel and joins the thread, raising its panic here.
    fn join(&mut self) -> Result<T, E> {
        self.sender = None;
        if let Some(thread) = self.thread.take() {
            match thread.join() {
                Ok(Err(error)) => self.error = Some(error),
                Ok(done) => return done,
                Err(payload) => resume_unwind(payload),
            }
        }
        Err(self.error.clone().expect("only a failed stage is rejoined"))
    }

    /// What stopped a worker its owner still talks to: its panic or the
    /// error it returned.
    fn stopped(&mut self) -> E {
        match self.join() {
            Err(error) => error,
            Ok(_) => panic!("a stage's worker stopped without an error while its owner waited"),
        }
    }
}

impl<M, T, E> Drop for Stage<M, T, E> {
    fn drop(&mut self) {
        self.sender = None;
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::{Reply, Stage};
    use std::panic::{catch_unwind, panic_any, AssertUnwindSafe};
    use std::sync::{Arc, Mutex};

    enum Msg {
        Add(u64),
        Total(Reply<u64>),
        Fail(&'static str),
        Panic(&'static str),
    }

    type Log = Arc<Mutex<Vec<String>>>;

    /// A toy stage: sums what it is sent and logs every step.
    fn sum() -> (Stage<Msg, u64, &'static str>, Log) {
        let log = Log::default();
        let seen = Arc::clone(&log);
        let stage = Stage::spawn("toy-stage", 1, move |inbox| {
            let mut total = 0;
            for msg in inbox {
                match msg {
                    Msg::Add(n) => {
                        total += n;
                        seen.lock().unwrap().push(format!("add {n}"));
                    }
                    Msg::Total(reply) => reply.send(total),
                    Msg::Fail(why) => return Err(why),
                    Msg::Panic(why) => panic_any(why),
                }
            }
            seen.lock().unwrap().push("finish".into());
            Ok(total)
        });
        (stage, log)
    }

    /// Sends `Add(0)` until a send is refused: a stopped worker's
    /// channel refuses the next one.
    fn send_until_refused(stage: &mut Stage<Msg, u64, &'static str>) -> &'static str {
        loop {
            if let Err(why) = stage.send(Msg::Add(0)) {
                return why;
            }
        }
    }

    fn payload(raised: std::thread::Result<impl Sized>) -> &'static str {
        let payload = raised.err().expect("the stage's panic is raised");
        payload.downcast_ref::<&'static str>().expect("the payload")
    }

    fn log(log: &Log) -> Vec<String> {
        log.lock().unwrap().clone()
    }

    #[test]
    fn messages_run_in_order_and_finish_returns_the_final_value() {
        let (mut stage, seen) = sum();
        for n in 1..=4 {
            stage.send(Msg::Add(n)).unwrap();
        }
        let answer = stage.request(Msg::Total).unwrap();
        assert_eq!(stage.wait(answer), Ok(10));
        stage.send(Msg::Add(5)).unwrap();
        assert_eq!(stage.finish(), Ok(15));
        assert_eq!(
            log(&seen),
            ["add 1", "add 2", "add 3", "add 4", "add 5", "finish"]
        );
    }

    #[test]
    fn a_panic_is_raised_with_its_payload_at_the_next_send() {
        let (mut stage, _) = sum();
        stage.send(Msg::Panic("boom")).unwrap();
        let raised = catch_unwind(AssertUnwindSafe(|| send_until_refused(&mut stage)));
        assert_eq!(payload(raised), "boom");
    }

    #[test]
    fn a_panic_is_raised_with_its_payload_at_finish_and_at_wait() {
        let (mut stage, _) = sum();
        stage.send(Msg::Panic("at finish")).unwrap();
        let raised = catch_unwind(AssertUnwindSafe(|| stage.finish()));
        assert_eq!(payload(raised), "at finish");

        let (mut stage, _) = sum();
        stage.send(Msg::Panic("at wait")).unwrap();
        let raised = catch_unwind(AssertUnwindSafe(|| {
            let answer = stage.request(Msg::Total)?;
            stage.wait(answer)
        }));
        assert_eq!(payload(raised), "at wait");
    }

    /// Dropping closes and joins: the queued messages run, then the
    /// worker's own end, and nothing else is sent. By the time `drop`
    /// returns, the thread is gone with its handle on the log.
    #[test]
    fn drop_runs_the_queued_messages_and_joins() {
        let (mut stage, seen) = sum();
        for n in 1..=3 {
            stage.send(Msg::Add(n)).unwrap();
        }
        drop(stage);
        assert_eq!(Arc::strong_count(&seen), 1);
        assert_eq!(log(&seen), ["add 1", "add 2", "add 3", "finish"]);
    }

    #[test]
    fn drop_swallows_the_worker_panic() {
        let (mut stage, seen) = sum();
        stage.send(Msg::Panic("unseen")).unwrap();
        drop(stage);
        assert_eq!(Arc::strong_count(&seen), 1);
    }

    /// A returned error stays a value: the send that finds the worker
    /// gone yields it, and so does every later send, request and finish.
    #[test]
    fn a_send_after_the_worker_returned_an_error_yields_it() {
        let (mut stage, seen) = sum();
        stage.send(Msg::Fail("disk full")).unwrap();
        assert_eq!(send_until_refused(&mut stage), "disk full");
        assert_eq!(stage.send(Msg::Add(1)), Err("disk full"));
        assert!(stage.request(Msg::Total).is_err());
        assert_eq!(stage.finish(), Err("disk full"));
        assert!(!log(&seen).contains(&"finish".to_string()));
    }
}
