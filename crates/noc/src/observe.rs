//! Observed variants of the closed-form network phases: identical timing
//! results, plus per-traffic-class metric recording into a
//! [`wmpt_obs::MetricRegistry`].
//!
//! The un-observed functions stay untouched and on the hot path; callers
//! that want metrics call these wrappers instead. Flit accounting uses
//! the paper's 16 B flit ([`crate::flit::FlitConfig::paper`]), so the
//! counters are comparable with the flit-level microbenchmarks.

use wmpt_obs::{MetricKey, MetricRegistry, TrafficClass};
use wmpt_sim::Time;

use crate::collective::ring_collective_cycles;
use crate::flit::FlitConfig;
use crate::params::NocParams;
use crate::topology::Topology;

/// Records the traffic of a flow list under `class`: real packets
/// injected, 16 B flits injected/delivered, and wire bytes × hops.
pub fn record_flows(
    reg: &mut MetricRegistry,
    params: &NocParams,
    topo: &Topology,
    flows: &[(usize, usize, u64)],
    class: TrafficClass,
) {
    let flit = FlitConfig::paper().flit_bytes as u64;
    let mut packets = 0u64;
    let mut flits = 0u64;
    let mut wire_hops = 0u64;
    for &(src, dst, payload) in flows {
        if src == dst || payload == 0 {
            continue;
        }
        let wire = params.wire_bytes(payload as usize, params.packet_bytes) as u64;
        let hops = topo.route(src, dst).len() as u64;
        packets += payload.div_ceil(params.packet_bytes as u64);
        flits += wire.div_ceil(flit);
        wire_hops += wire * hops;
    }
    reg.inc(MetricKey::PacketsInjected(class), packets);
    reg.inc(MetricKey::FlitsInjected(class), flits);
    // A completed bulk-synchronous phase delivers everything it injects.
    reg.inc(MetricKey::FlitsDelivered(class), flits);
    reg.inc(MetricKey::BytesOnWire(class), wire_hops);
}

/// Observed [`ring_collective_cycles`]: same closed-form result, plus
/// reduce/broadcast cycle counters and per-phase flit/packet/byte
/// accounting (each of the `ring_len − 1` hops carries the full message
/// once per phase).
pub fn ring_collective_cycles_observed(
    msg_bytes: u64,
    ring_len: usize,
    bytes_per_cycle: f64,
    params: &NocParams,
    extra_hop_latency: Time,
    reg: &mut MetricRegistry,
) -> f64 {
    let cycles = ring_collective_cycles(
        msg_bytes,
        ring_len,
        bytes_per_cycle,
        params,
        extra_hop_latency,
    );
    if cycles == 0.0 {
        return 0.0;
    }
    let half = (cycles / 2.0).round() as u64;
    reg.inc(MetricKey::CollectiveReduceCycles, half);
    reg.inc(MetricKey::CollectiveBroadcastCycles, half);
    reg.inc(MetricKey::CollectiveCycles, cycles.round() as u64);
    let flit = FlitConfig::paper().flit_bytes as u64;
    let chunk = params.collective_chunk_bytes as u64;
    let hops = (ring_len - 1) as u64;
    let wire_msg = params.wire_bytes(msg_bytes as usize, params.collective_chunk_bytes) as u64;
    for (class, _) in [(TrafficClass::Reduce, 0), (TrafficClass::Broadcast, 1)] {
        reg.inc(
            MetricKey::PacketsInjected(class),
            msg_bytes.div_ceil(chunk) * hops,
        );
        let flits = wire_msg.div_ceil(flit) * hops;
        reg.inc(MetricKey::FlitsInjected(class), flits);
        reg.inc(MetricKey::FlitsDelivered(class), flits);
        reg.inc(MetricKey::BytesOnWire(class), wire_msg * hops);
    }
    cycles
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn observed_collective_matches_unobserved() {
        let p = NocParams::paper();
        let mut reg = MetricRegistry::new();
        let obs = ring_collective_cycles_observed(8 << 20, 16, 60.0, &p, 0, &mut reg);
        let plain = ring_collective_cycles(8 << 20, 16, 60.0, &p, 0);
        assert_eq!(obs, plain);
        let total = reg.counter(MetricKey::CollectiveCycles);
        let halves = reg.counter(MetricKey::CollectiveReduceCycles)
            + reg.counter(MetricKey::CollectiveBroadcastCycles);
        assert!(total.abs_diff(halves) <= 1);
        assert!(reg.counter(MetricKey::FlitsInjected(TrafficClass::Reduce)) > 0);
        assert_eq!(
            reg.counter(MetricKey::BytesOnWire(TrafficClass::Reduce)),
            reg.counter(MetricKey::BytesOnWire(TrafficClass::Broadcast))
        );
    }

    #[test]
    fn zero_work_records_nothing() {
        let p = NocParams::paper();
        let mut reg = MetricRegistry::new();
        assert_eq!(
            ring_collective_cycles_observed(0, 16, 60.0, &p, 0, &mut reg),
            0.0
        );
        assert!(reg.is_empty());
    }
}
