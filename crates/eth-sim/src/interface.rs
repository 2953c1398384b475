//! The simulation ↔ analysis in-situ interface.
//!
//! "The developer codes to an interface that communicates with a customized
//! analysis component … This two-part architecture — a large simulation
//! computation communicating via an interface to a potentially
//! comparably-sized analysis component — is at the heart of in-situ
//! processing." (Section I)
//!
//! The producer side is ETH's [`crate::SimulationProxy`] presenting a
//! recorded time series; [`InSituSink`] is the consumer side (the
//! visualization proxy).

use eth_data::error::Result;
use eth_data::DataObject;

/// Consumer side: receives each timestep's data.
pub trait InSituSink {
    /// Consume one timestep of data. Called once per step, in order.
    fn consume(&mut self, step: usize, data: &DataObject) -> Result<()>;

    /// Called after the last timestep; flush artifacts.
    fn finish(&mut self) -> Result<()> {
        Ok(())
    }
}

/// A sink that only counts what it sees — useful for tests and for
/// measuring pure simulation/transport cost without rendering.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct CountingSink {
    pub steps: usize,
    pub elements: u64,
    pub bytes: u64,
    pub finished: bool,
}

impl InSituSink for CountingSink {
    fn consume(&mut self, _step: usize, data: &DataObject) -> Result<()> {
        self.steps += 1;
        self.elements += data.num_elements() as u64;
        self.bytes += data.payload_bytes() as u64;
        Ok(())
    }

    fn finish(&mut self) -> Result<()> {
        self.finished = true;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eth_data::{PointCloud, Vec3};

    fn obj(n: usize) -> DataObject {
        DataObject::Points(PointCloud::from_positions(vec![Vec3::ZERO; n]))
    }

    #[test]
    fn counting_sink_accumulates() {
        let mut sink = CountingSink::default();
        sink.consume(0, &obj(3)).unwrap();
        sink.consume(1, &obj(5)).unwrap();
        sink.finish().unwrap();
        assert_eq!(sink.steps, 2);
        assert_eq!(sink.elements, 8);
        assert_eq!(sink.bytes, 8 * 12);
        assert!(sink.finished);
    }
}
