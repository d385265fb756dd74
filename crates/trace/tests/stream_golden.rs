//! Golden digests of whole expanded-and-transformed streams.
//!
//! Each digest is an FNV-1a hash over every event's `(at_ms, tenant,
//! function name)`, pinned together with the event count. They pin the
//! exact event sequence the trace layer hands a replay: any change to
//! expansion (placement, duration-rank draw, tie order), to the
//! transform chain or to day chaining moves one of them. An
//! optimisation of the trace layer must leave all of them unchanged.

use litmus_platform::TraceSource;
use litmus_trace::{
    fixture, multi_day_source, AzureDataset, ExpandConfig, IntraMinute, TraceTransform,
    TransformedSource,
};

/// Event count and FNV-1a digest of everything `source` yields.
fn digest(mut source: impl TraceSource) -> (u64, u64) {
    const PRIME: u64 = 0x0000_0100_0000_01B3;
    let mut hash = 0xCBF2_9CE4_8422_2325u64;
    let mut count = 0u64;
    let mut eat = |bytes: &[u8]| {
        for &byte in bytes {
            hash ^= byte as u64;
            hash = hash.wrapping_mul(PRIME);
        }
    };
    while let Some(event) = source.next_event() {
        eat(&event.at_ms.to_le_bytes());
        eat(&event.tenant.0.to_le_bytes());
        eat(event.function.name().as_bytes());
        // Separator so adjacent names cannot run together.
        eat(&[0x1F]);
        count += 1;
    }
    (count, hash)
}

fn days(n: usize) -> Vec<AzureDataset> {
    vec![fixture::dataset(); n]
}

/// The sparse replay shape: 24 chained fixture days, each minute
/// stretched to 120 s, Poisson placement, thinned to 4% with a seed
/// derived from the expansion seed.
fn sparse(seed: u64) -> (u64, u64) {
    let config = ExpandConfig::new(seed)
        .minute_ms(120_000)
        .placement(IntraMinute::Poisson);
    let source = multi_day_source(&days(24), config).unwrap();
    let thinned = TransformedSource::new(
        source,
        vec![TraceTransform::ScaleRate {
            keep_fraction: 0.04,
            seed: seed.wrapping_add(1),
        }],
    )
    .unwrap();
    digest(thinned)
}

#[test]
fn sparse_thinned_stream_is_pinned() {
    assert_eq!(sparse(2024), (3_280, 0xEA0D_415D_EFBF_3CC1));
    assert_eq!(sparse(7919), (3_279, 0x490C_B0B8_0B91_7F8E));
}

#[test]
fn unthinned_four_day_stream_is_pinned() {
    let config = ExpandConfig::new(2024).minute_ms(600);
    let source = multi_day_source(&days(4), config).unwrap();
    assert_eq!(digest(source), (4 * 3_442, 0x100E_F95F_723F_9BCF));
}

#[test]
fn tie_heavy_chain_is_pinned() {
    // Thinning then halving time: the compression turns distinct
    // arrival times into cross-tenant ties, which must come out in
    // ascending tenant order.
    let source = multi_day_source(&days(2), ExpandConfig::new(77).minute_ms(200)).unwrap();
    let chained = TransformedSource::new(
        source,
        vec![
            TraceTransform::ScaleRate {
                keep_fraction: 0.15,
                seed: 5,
            },
            TraceTransform::Compress { divisor: 2 },
        ],
    )
    .unwrap();
    assert_eq!(digest(chained), (1_006, 0x02A0_EAB8_CBE2_E87D));
}
