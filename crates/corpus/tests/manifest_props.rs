//! Property tests for manifest integrity: any corruption of a sealed
//! manifest — an edited numeric value, a flipped checksum bit, a
//! truncation at any offset — must surface as a structured error from
//! [`CorpusManifest::from_json`], never a panic or a silently accepted
//! manifest. A wrong manifest is how a wrong accuracy number would get
//! published, so rejection is load-bearing. [`CorpusManifest::load`] must
//! likewise turn arbitrary file bytes into a structured error.

use std::collections::BTreeMap;

use proptest::prelude::*;
use smt_corpus::{
    ArchPolicy, CorpusArch, CorpusEntry, CorpusManifest, OracleLabel, SizeTier, MANIFEST_VERSION,
};
use smt_sim::SmtLevel;

fn arb_level() -> impl Strategy<Value = SmtLevel> {
    prop_oneof![
        Just(SmtLevel::Smt1),
        Just(SmtLevel::Smt2),
        Just(SmtLevel::Smt4),
    ]
}

fn arb_entry() -> impl Strategy<Value = CorpusEntry> {
    (
        0u8..2,
        0u8..3,
        0u32..1000,
        any::<u64>(),
        1u64..64,
        arb_level(),
    )
        .prop_map(|(arch, tier, n, checksum, windows, best)| {
            let arch = CorpusArch::ALL[arch as usize];
            let tier = SizeTier::ALL[tier as usize];
            let workload = format!("W{n:03}");
            CorpusEntry {
                id: format!("{}/{}/{}", arch.tag(), tier.name(), workload),
                arch,
                tier,
                workload,
                scale: 4.0 * tier.multiplier(),
                file: format!("traces/{}-{}-w{n:03}.smtc", arch.tag(), tier.name()),
                trace_checksum: checksum,
                trace_windows: windows,
                oracle: OracleLabel {
                    best,
                    perf: vec![
                        (SmtLevel::Smt1, 1.0),
                        (SmtLevel::Smt2, 1.5),
                        (SmtLevel::Smt4, 2.0),
                    ],
                },
            }
        })
}

fn arb_manifest() -> impl Strategy<Value = CorpusManifest> {
    proptest::collection::vec(arb_entry(), 1..8).prop_map(|mut entries| {
        entries.sort_by(|a, b| a.id.cmp(&b.id));
        entries.dedup_by(|a, b| a.id == b.id);
        let mut policy = BTreeMap::new();
        for arch in CorpusArch::ALL {
            policy.insert(
                arch.tag().to_string(),
                ArchPolicy {
                    threshold_top: 0.15,
                    threshold_mid: 0.20,
                },
            );
        }
        let mut m = CorpusManifest {
            version: MANIFEST_VERSION,
            checksum: 0,
            base_scale: 4.0,
            window_cycles: 10_000,
            windows: 32,
            warmup_cycles: 20_000,
            policy,
            entries,
        };
        m.seal().expect("seal");
        m
    })
}

proptest! {
    #[test]
    fn sealed_manifests_round_trip(m in arb_manifest()) {
        let body = m.to_json().unwrap();
        let back = CorpusManifest::from_json(&body).unwrap();
        prop_assert_eq!(back, m);
    }

    #[test]
    fn truncated_manifests_are_rejected(m in arb_manifest(), cut in any::<u64>()) {
        let body = m.to_json().unwrap();
        // Truncate strictly inside the document at an arbitrary offset.
        let cut = 1 + (cut as usize) % (body.len() - 1);
        let truncated = &body[..cut];
        prop_assert!(CorpusManifest::from_json(truncated).is_err());
    }

    #[test]
    fn checksum_edits_are_rejected(m in arb_manifest(), delta in 1u64..u64::MAX) {
        let mut tampered = m.clone();
        tampered.checksum = m.checksum.wrapping_add(delta);
        let body = tampered.to_json().unwrap();
        let err = CorpusManifest::from_json(&body).unwrap_err().to_string();
        prop_assert!(err.contains("checksum"), "{}", err);
    }

    #[test]
    fn value_edits_are_rejected(m in arb_manifest(), i in any::<u64>(), delta in 1u64..u64::MAX) {
        // Flip one trace checksum after sealing: the manifest checksum
        // must catch the edit.
        let mut tampered = m.clone();
        let i = (i as usize) % tampered.entries.len();
        tampered.entries[i].trace_checksum =
            tampered.entries[i].trace_checksum.wrapping_add(delta);
        let body = tampered.to_json().unwrap();
        let err = CorpusManifest::from_json(&body).unwrap_err().to_string();
        prop_assert!(err.contains("checksum"), "{}", err);
    }

    #[test]
    fn arbitrary_file_bytes_are_structured_errors(
        m in arb_manifest(),
        at in any::<u64>(),
        junk in proptest::collection::vec(any::<u8>(), 0..256),
    ) {
        // Pure junk, and a sealed manifest spliced with junk at an
        // arbitrary offset (which may split a UTF-8 sequence).
        let body = m.to_json().unwrap().into_bytes();
        let at = (at as usize) % body.len();
        let spliced: Vec<u8> = body[..at].iter().chain(&junk).copied().collect();
        let path = std::env::temp_dir()
            .join(format!("smt-corpus-manifest-props-{}.json", std::process::id()));
        for bytes in [&junk, &spliced] {
            std::fs::write(&path, bytes).unwrap();
            let err = CorpusManifest::load(&path).unwrap_err();
            prop_assert!(!err.to_string().is_empty());
        }
        std::fs::remove_file(&path).ok();
    }
}
