//! The fan-out adapter that wires the framework DAG. An edge into a
//! `Streamable` needs none: an `InputHandle` is itself an observer.

use impatience_core::{EventBatch, Payload, StreamError, Timestamp};
use impatience_engine::Observer;

/// Observer that duplicates traffic to two downstreams — the fan-out the
/// basic framework pays for (each output stream is also fed into the next
/// union, §V-A/Fig 6).
pub struct TeeOp<P: Payload, A, B> {
    a: A,
    b: B,
    _p: core::marker::PhantomData<P>,
}

impl<P: Payload, A, B> TeeOp<P, A, B> {
    /// Duplicates to `a` and `b` (in that order).
    pub fn new(a: A, b: B) -> Self {
        TeeOp {
            a,
            b,
            _p: core::marker::PhantomData,
        }
    }
}

impl<P: Payload, A: Observer<P>, B: Observer<P>> Observer<P> for TeeOp<P, A, B> {
    fn on_batch(&mut self, batch: EventBatch<P>) {
        self.a.on_batch(batch.clone());
        self.b.on_batch(batch);
    }
    fn on_punctuation(&mut self, t: Timestamp) {
        self.a.on_punctuation(t);
        self.b.on_punctuation(t);
    }
    fn on_completed(&mut self) {
        self.a.on_completed();
        self.b.on_completed();
    }
    fn on_error(&mut self, err: StreamError) {
        self.a.on_error(err.clone());
        self.b.on_error(err);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use impatience_core::{Event, StreamMessage};
    use impatience_engine::Output;

    fn ev(t: i64) -> Event<u32> {
        Event::point(Timestamp::new(t), t as u32)
    }

    #[test]
    fn tee_duplicates_everything() {
        let (out_a, sink_a) = Output::<u32>::new();
        let (out_b, sink_b) = Output::<u32>::new();
        let mut tee = TeeOp::new(sink_a, sink_b);
        tee.on_batch([ev(1), ev(2)].into_iter().collect());
        tee.on_punctuation(Timestamp::new(9));
        tee.on_completed();
        for out in [out_a, out_b] {
            assert_eq!(out.event_count(), 2);
            assert_eq!(out.last_punctuation(), Some(Timestamp::new(9)));
            assert!(out.is_completed());
            assert!(matches!(
                out.messages().last(),
                Some(StreamMessage::Completed)
            ));
        }
    }
}
