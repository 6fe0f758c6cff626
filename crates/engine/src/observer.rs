//! The push-based observer protocol.
//!
//! The engine executes queries as chains of [`Observer`]s, Trill/Rx style:
//! each operator receives batches and punctuations from upstream and pushes
//! transformed traffic to its downstream sink. Streams delivered between
//! observers are **in-order** (nondecreasing `sync_time` across batches)
//! unless explicitly documented otherwise — the whole point of the paper's
//! architecture is that only the sorting operator ever sees disorder.

use crate::lock;
use impatience_core::{Event, EventBatch, Payload, StreamError, StreamMessage, Timestamp};
use std::sync::{Arc, Mutex};

/// A consumer of stream traffic.
///
/// `Send` is a supertrait so whole operator chains can move onto worker
/// threads (`crate::sharded`); it propagates to `Box<dyn Observer<P>>`
/// trait objects, which is what pipelines are built from.
pub trait Observer<P: Payload>: Send {
    /// Receives a batch of events.
    fn on_batch(&mut self, batch: EventBatch<P>);
    /// Receives a progress punctuation.
    fn on_punctuation(&mut self, t: Timestamp);
    /// Receives end-of-stream; the observer must flush all state.
    fn on_completed(&mut self);

    /// Receives a **terminal** error: the chain is poisoned and no further
    /// traffic (batches, punctuations, or completion) will follow.
    /// Operators forward the error downstream *without* flushing buffered
    /// state — partial flushes after a failure would look like valid
    /// output. The default ignores the error, which is correct for pure
    /// counting sinks; stateful operators and recording sinks override it.
    fn on_error(&mut self, err: StreamError) {
        let _ = err;
    }

    /// Dispatches a [`StreamMessage`].
    fn on_message(&mut self, msg: StreamMessage<P>) {
        match msg {
            StreamMessage::Batch(b) => self.on_batch(b),
            StreamMessage::Punctuation(t) => self.on_punctuation(t),
            StreamMessage::Completed => self.on_completed(),
        }
    }
}

/// Boxed observers are observers.
impl<P: Payload> Observer<P> for Box<dyn Observer<P>> {
    fn on_batch(&mut self, batch: EventBatch<P>) {
        (**self).on_batch(batch);
    }
    fn on_punctuation(&mut self, t: Timestamp) {
        (**self).on_punctuation(t);
    }
    fn on_completed(&mut self) {
        (**self).on_completed();
    }
    fn on_error(&mut self, err: StreamError) {
        (**self).on_error(err);
    }
}

/// Shared buffer an [`Output`] handle reads from.
#[derive(Debug)]
pub struct OutputBuf<P> {
    /// Everything received, in order.
    pub messages: Vec<StreamMessage<P>>,
    /// Completion flag.
    pub completed: bool,
    /// Running count of visible events received.
    pub event_count: u64,
    /// First terminal error received, if any.
    pub error: Option<StreamError>,
}

impl<P> Default for OutputBuf<P> {
    fn default() -> Self {
        OutputBuf {
            messages: Vec::new(),
            completed: false,
            event_count: 0,
            error: None,
        }
    }
}

/// A readable handle onto a subscribed output stream.
///
/// Returned by `Streamable::collect_output`; read it after the input has
/// been driven (or immediately for static sources, which drive during
/// subscription).
#[derive(Clone)]
pub struct Output<P> {
    buf: Arc<Mutex<OutputBuf<P>>>,
}

impl<P: Payload> Output<P> {
    /// A fresh output with an attached collector observer.
    pub fn new() -> (Output<P>, CollectorSink<P>) {
        let buf = Arc::new(Mutex::new(OutputBuf::default()));
        (Output { buf: buf.clone() }, CollectorSink { buf })
    }

    /// All messages received so far (cloned).
    pub fn messages(&self) -> Vec<StreamMessage<P>> {
        lock(&self.buf).messages.clone()
    }

    /// All visible events received so far, flattened in order.
    pub fn events(&self) -> Vec<Event<P>> {
        lock(&self.buf)
            .messages
            .iter()
            .filter_map(|m| match m {
                StreamMessage::Batch(b) => Some(b.visible_to_vec()),
                _ => None,
            })
            .flatten()
            .collect()
    }

    /// Number of visible events received so far (no clone).
    pub fn event_count(&self) -> u64 {
        lock(&self.buf).event_count
    }

    /// Has the stream completed?
    pub fn is_completed(&self) -> bool {
        lock(&self.buf).completed
    }

    /// Timestamp of the highest punctuation received, if any.
    pub fn last_punctuation(&self) -> Option<Timestamp> {
        lock(&self.buf).messages.iter().rev().find_map(|m| match m {
            StreamMessage::Punctuation(t) => Some(*t),
            _ => None,
        })
    }

    /// The terminal error, if the stream failed instead of completing.
    pub fn error(&self) -> Option<StreamError> {
        lock(&self.buf).error.clone()
    }

    /// Atomically drains buffered messages, keeping counters — the
    /// incremental-consumer form of [`Self::messages`] used by the
    /// serving layer to ship output as it is released.
    pub fn take_messages(&self) -> Vec<StreamMessage<P>> {
        std::mem::take(&mut lock(&self.buf).messages)
    }
}

/// Terminal observer that records everything into an [`Output`]. A clone
/// records into the same output: a caller can keep one to record a
/// failure that never reached the pipeline's sink.
#[derive(Clone)]
pub struct CollectorSink<P> {
    buf: Arc<Mutex<OutputBuf<P>>>,
}

impl<P: Payload> Observer<P> for CollectorSink<P> {
    fn on_batch(&mut self, batch: EventBatch<P>) {
        let mut b = lock(&self.buf);
        b.event_count += batch.visible_len() as u64;
        b.messages.push(StreamMessage::Batch(batch));
    }
    fn on_punctuation(&mut self, t: Timestamp) {
        lock(&self.buf).messages.push(StreamMessage::Punctuation(t));
    }
    fn on_completed(&mut self) {
        let mut b = lock(&self.buf);
        b.completed = true;
        b.messages.push(StreamMessage::Completed);
    }
    fn on_error(&mut self, err: StreamError) {
        let mut b = lock(&self.buf);
        if b.error.is_none() {
            b.error = Some(err);
        }
    }
}

/// Terminal observer that invokes a callback per visible event — the
/// `Subscribe(e => ...)` of the paper's code samples.
pub struct FnSink<P, F> {
    f: F,
    _p: core::marker::PhantomData<P>,
}

impl<P, F> FnSink<P, F> {
    /// Wraps a per-event callback.
    pub fn new(f: F) -> Self {
        FnSink {
            f,
            _p: core::marker::PhantomData,
        }
    }
}

impl<P: Payload, F: FnMut(&Event<P>) + Send> Observer<P> for FnSink<P, F> {
    fn on_batch(&mut self, batch: EventBatch<P>) {
        for e in batch.iter_visible() {
            (self.f)(e);
        }
    }
    fn on_punctuation(&mut self, _t: Timestamp) {}
    fn on_completed(&mut self) {}
}

/// Terminal observer that counts events and discards them — zero-overhead
/// sink for throughput benchmarks.
#[derive(Default)]
pub struct BlackHoleSink {
    events: u64,
    punctuations: u64,
    completed: bool,
    errors: u64,
}

impl BlackHoleSink {
    /// A fresh sink.
    pub fn new() -> Self {
        Self::default()
    }
    /// Events swallowed.
    pub fn events(&self) -> u64 {
        self.events
    }
    /// Punctuations swallowed.
    pub fn punctuations(&self) -> u64 {
        self.punctuations
    }
    /// Completed?
    pub fn is_completed(&self) -> bool {
        self.completed
    }
    /// Terminal errors swallowed.
    pub fn errors(&self) -> u64 {
        self.errors
    }
}

impl<P: Payload> Observer<P> for BlackHoleSink {
    fn on_batch(&mut self, batch: EventBatch<P>) {
        self.events += batch.visible_len() as u64;
    }
    fn on_punctuation(&mut self, _t: Timestamp) {
        self.punctuations += 1;
    }
    fn on_completed(&mut self) {
        self.completed = true;
    }
    fn on_error(&mut self, _err: StreamError) {
        self.errors += 1;
    }
}

/// A shared (reference-counted) sink wrapper, for counting across a fan-out.
pub struct SharedSink<S: ?Sized>(pub Arc<Mutex<S>>);

impl<S: ?Sized> Clone for SharedSink<S> {
    fn clone(&self) -> Self {
        SharedSink(self.0.clone())
    }
}

impl<P: Payload, S: Observer<P> + ?Sized> Observer<P> for SharedSink<S> {
    fn on_batch(&mut self, batch: EventBatch<P>) {
        lock(&self.0).on_batch(batch);
    }
    fn on_punctuation(&mut self, t: Timestamp) {
        lock(&self.0).on_punctuation(t);
    }
    fn on_completed(&mut self) {
        lock(&self.0).on_completed();
    }
    fn on_error(&mut self, err: StreamError) {
        lock(&self.0).on_error(err);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn batch(ts: &[i64]) -> EventBatch<u32> {
        ts.iter()
            .map(|&t| Event::point(Timestamp::new(t), t as u32))
            .collect()
    }

    #[test]
    fn collector_records_everything() {
        let (out, mut sink) = Output::<u32>::new();
        sink.on_batch(batch(&[1, 2]));
        sink.on_punctuation(Timestamp::new(2));
        sink.on_batch(batch(&[3]));
        sink.on_completed();
        assert_eq!(out.event_count(), 3);
        assert!(out.is_completed());
        assert_eq!(out.events().len(), 3);
        assert_eq!(out.last_punctuation(), Some(Timestamp::new(2)));
        assert_eq!(out.take_messages().len(), 4);
        assert!(out.messages().is_empty());
        assert_eq!(out.event_count(), 3, "counters survive the drain");
    }

    #[test]
    fn fn_sink_sees_only_visible_events() {
        let seen = Arc::new(Mutex::new(Vec::new()));
        let seen2 = seen.clone();
        let mut sink = FnSink::new(move |e: &Event<u32>| seen2.lock().unwrap().push(e.payload));
        let mut b = batch(&[1, 2, 3]);
        b.filter_mut().filter_out(1);
        sink.on_batch(b);
        sink.on_punctuation(Timestamp::new(5));
        sink.on_completed();
        assert_eq!(*seen.lock().unwrap(), vec![1, 3]);
    }

    #[test]
    fn black_hole_counts() {
        let mut s = BlackHoleSink::new();
        Observer::<u32>::on_batch(&mut s, batch(&[1, 2, 3]));
        Observer::<u32>::on_punctuation(&mut s, Timestamp::new(9));
        Observer::<u32>::on_completed(&mut s);
        assert_eq!(s.events(), 3);
        assert_eq!(s.punctuations(), 1);
        assert!(s.is_completed());
    }

    #[test]
    fn on_message_dispatch() {
        let (out, mut sink) = Output::<u32>::new();
        sink.on_message(StreamMessage::batch(vec![Event::point(
            Timestamp::new(1),
            9,
        )]));
        sink.on_message(StreamMessage::punctuation(4));
        sink.on_message(StreamMessage::Completed);
        assert_eq!(out.event_count(), 1);
        assert!(out.is_completed());
    }

    #[test]
    fn collector_records_first_error() {
        let (out, mut sink) = Output::<u32>::new();
        sink.on_batch(batch(&[1]));
        assert!(out.error().is_none());
        sink.on_error(StreamError::PushAfterCompleted);
        sink.on_error(StreamError::InvalidConfig("second".into()));
        assert_eq!(out.error(), Some(StreamError::PushAfterCompleted));
        assert!(!out.is_completed(), "an error is not completion");
    }

    #[test]
    fn black_hole_counts_errors() {
        let mut s = BlackHoleSink::new();
        Observer::<u32>::on_error(&mut s, StreamError::PushAfterCompleted);
        assert_eq!(s.errors(), 1);
    }

    #[test]
    fn shared_sink_fans_in() {
        let hole = Arc::new(Mutex::new(BlackHoleSink::new()));
        let mut a = SharedSink(hole.clone());
        let mut b = a.clone();
        Observer::<u32>::on_batch(&mut a, batch(&[1]));
        Observer::<u32>::on_batch(&mut b, batch(&[2, 3]));
        assert_eq!(hole.lock().unwrap().events(), 3);
    }
}
