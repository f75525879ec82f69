//! Arbitrary-byte tests for every wire decoder: both codecs'
//! `decode_request` / `decode_response` / `split_frame` and
//! `protocol::decode_line`. Whatever arrives on a socket, a decoder must
//! return — never panic, never overflow the stack — and garbage must come
//! back as a structured [`Error`].
//!
//! Inputs are pure random bytes plus valid payloads with a byte
//! overwritten, cut short, or spliced with random bytes: the corruptions
//! that get past the first tag byte and exercise the nested decoders.

use std::sync::OnceLock;

use proptest::prelude::*;
use smt_service::codec::codec_for;
use smt_service::protocol::{
    decode_line, CodecKind, ErrorCode, IngestSummary, Request, Response, SessionSpec,
    PROTOCOL_VERSION,
};
use smt_sim::{Error, MachineConfig, Simulation, SmtLevel};
use smt_workloads::{catalog, SyntheticWorkload};

const KINDS: [CodecKind; 2] = [CodecKind::Ndjson, CodecKind::Binary];

/// Valid frame payloads, as `(codec, is_request, payload)`.
fn payloads() -> &'static Vec<(CodecKind, bool, Vec<u8>)> {
    static POOL: OnceLock<Vec<(CodecKind, bool, Vec<u8>)>> = OnceLock::new();
    POOL.get_or_init(|| {
        let mut sim = Simulation::new(
            MachineConfig::power7(1),
            SmtLevel::Smt4,
            SyntheticWorkload::new(catalog::ep().scaled(0.05)),
        );
        let w = sim.measure_window(5_000);
        let requests = [
            Request::Hello {
                proto: PROTOCOL_VERSION,
                spec: SessionSpec::power7(),
                codec: CodecKind::Binary,
            },
            Request::Ingest {
                windows: vec![w.clone(), w.clone()],
            },
            Request::IngestTagged {
                thread: 3,
                windows: vec![w],
            },
            Request::Place {
                threads: vec![2, 0, 1],
            },
            Request::Debug {
                op: "panic".to_string(),
            },
        ];
        let responses = [
            Response::Ingested(IngestSummary {
                accepted: 4,
                total_windows: 12,
                level: SmtLevel::Smt2,
                switches: vec![smt_sched::StreamDecision {
                    level: SmtLevel::Smt2,
                    metric: Some(0.31),
                    switched: true,
                    probe: false,
                }],
            }),
            Response::Placement(smt_sched::PlacementReport {
                threads: vec![10, 11, 12],
                cores: vec![vec![10, 12], vec![11]],
                predicted: 3.25,
                per_core: vec![2.0, 1.25],
                windows: 24,
            }),
            Response::error(ErrorCode::UnknownThread, "detail"),
        ];
        let mut pool = Vec::new();
        for kind in KINDS {
            let codec = codec_for(kind);
            let mut push = |is_request: bool, bytes: Vec<u8>| {
                let f = codec.split_frame(&bytes).unwrap().unwrap();
                pool.push((kind, is_request, bytes[f.start..f.end].to_vec()));
            };
            for r in &requests {
                let mut bytes = Vec::new();
                codec.encode_request(r, &mut bytes).unwrap();
                push(true, bytes);
            }
            for r in &responses {
                let mut bytes = Vec::new();
                codec.encode_response(r, &mut bytes).unwrap();
                push(false, bytes);
            }
        }
        pool
    })
}

fn structured<T>(r: Result<T, Error>) -> Result<(), TestCaseError> {
    match r {
        Ok(_) => Err(TestCaseError::fail("garbage decoded as a message")),
        Err(e) => {
            prop_assert!(!e.to_string().is_empty());
            Ok(())
        }
    }
}

/// Run every decoder over `bytes`; each must return.
fn decode_all(bytes: &[u8]) {
    for kind in KINDS {
        let codec = codec_for(kind);
        let _ = codec.decode_request(bytes);
        let _ = codec.decode_response(bytes);
        let _ = codec.split_frame(bytes);
    }
    let text = String::from_utf8_lossy(bytes);
    let _ = decode_line::<Request>(&text);
    let _ = decode_line::<Response>(&text);
}

/// One valid payload from the pool, corrupted according to `mode`.
fn corrupt(which: usize, mode: u8, at: u64, junk: &[u8]) -> (CodecKind, bool, Vec<u8>) {
    let pool = payloads();
    let (kind, is_request, valid) = &pool[which % pool.len()];
    let at = (at as usize) % valid.len();
    let mut bytes = valid.clone();
    match mode % 3 {
        0 => bytes[at] ^= junk.first().copied().unwrap_or(0xff) | 1,
        1 => bytes.truncate(at),
        _ => {
            bytes.truncate(at);
            bytes.extend_from_slice(junk);
        }
    }
    (*kind, *is_request, bytes)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

    #[test]
    fn random_bytes_are_structured_errors(bytes in proptest::collection::vec(any::<u8>(), 8..512)) {
        decode_all(&bytes);
        for kind in KINDS {
            structured(codec_for(kind).decode_request(&bytes))?;
            structured(codec_for(kind).decode_response(&bytes))?;
        }
        let text = String::from_utf8_lossy(&bytes);
        structured(decode_line::<Request>(&text))?;
        structured(decode_line::<Response>(&text))?;
    }

    #[test]
    fn corrupted_payloads_never_panic(
        which in any::<usize>(),
        mode in any::<u8>(),
        at in any::<u64>(),
        junk in proptest::collection::vec(any::<u8>(), 0..64),
    ) {
        let (kind, is_request, bytes) = corrupt(which, mode, at, &junk);
        decode_all(&bytes);
        // A binary payload cut short always misses part of a field, and
        // the decoder must say so rather than guess.
        if kind == CodecKind::Binary && mode % 3 == 1 {
            let codec = codec_for(kind);
            if is_request {
                structured(codec.decode_request(&bytes))?;
            } else {
                structured(codec.decode_response(&bytes))?;
            }
        }
    }
}

#[test]
fn deeply_nested_lines_are_structured_errors() {
    let hostile = "{\"Hello\":".repeat(1 << 16);
    assert!(decode_line::<Request>(&hostile).is_err());
    let hostile = "[".repeat(1 << 16);
    assert!(codec_for(CodecKind::Ndjson)
        .decode_response(hostile.as_bytes())
        .is_err());
}
