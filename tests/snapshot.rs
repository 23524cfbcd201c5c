//! Snapshot codec and checkpoint/resume properties.
//!
//! Three layers, mirroring the format's trust boundaries:
//!
//! 1. **Frame codec** — `Snapshot::encode`/`decode` round-trips for
//!    seeded-random frames; every truncation and every single-bit flip
//!    of an encoded frame is rejected with a positioned error (the
//!    CRC-32 trailer is checked before any field is trusted).
//! 2. **Checkpoint payloads** — each miner's checkpoint state
//!    round-trips through its payload codec for `Prng`-generated
//!    states, and truncated payloads fail with positioned errors.
//! 3. **Resume contract** — a governed run tripped mid-flight with a
//!    boundary-snapshot policy leaves a frame on disk from which
//!    `Session::resume` completes to an FD set identical to the
//!    uninterrupted baseline; frames for the wrong algorithm, relation
//!    or configuration, and payloads that do not fit the relation, are
//!    refused loudly before any mining.

use depminer::depminer::agree::agree_sets_naive;
use depminer::depminer::maxset::{cmax_sets, MaxSets};
use depminer::depminer::{
    left_hand_sides, DepMiner, DepMinerCheckpoint, TransversalEngine, DEPMINER_ALGO,
};
use depminer::engine::{ApproxMiner, Emitted, Miner, MinerRegistry, Session, SessionCtx};
use depminer::fdep::{Fdep, FdepCheckpoint, FDEP_ALGO};
use depminer::fdtheory::{mine_minimal_fds, Fd};
use depminer::govern::snapshot::{crc32, read_snapshot, Snapshot};
use depminer::govern::{
    Budget, CancelToken, MiningOutcome, Obs, Resource, SnapshotError, SnapshotPolicy, Stage,
};
use depminer::relation::state::db_fingerprint;
use depminer::relation::{datasets, AttrSet, Prng, Relation, StrippedPartitionDb, SyntheticConfig};
use depminer::tane::{
    approx_config_bytes, approximate_fds, approximate_fds_governed, ApproxCheckpoint, ApproxFd,
    Tane, TaneCheckpoint, TANE_ALGO, TANE_APPROX_ALGO,
};
use std::path::PathBuf;

/// Fresh per-test snapshot directory.
fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("depminer_snapshot_tests")
        .join(name);
    if dir.exists() {
        std::fs::remove_dir_all(&dir).unwrap();
    }
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Structurally rich enough that every miner sees several boundaries.
fn workload() -> Relation {
    SyntheticConfig {
        n_attrs: 7,
        n_rows: 60,
        correlation: 0.6,
        seed: 0x5EED_0901,
    }
    .generate()
    .expect("valid synthetic config")
}

/// Resumes `miner` from `snap` on `r` through the engine's one resume
/// path, under `budget` and an optional re-armed snapshot policy.
fn resume(
    r: &Relation,
    miner: &dyn Miner,
    snap: &Snapshot,
    budget: Budget,
    policy: Option<SnapshotPolicy>,
) -> Result<MiningOutcome<Emitted>, SnapshotError> {
    Session::new(SessionCtx::new(r, budget, Obs::none(), policy)).resume(miner, snap)
}

/// The exact FDs an exact miner emitted.
fn exact(out: &MiningOutcome<Emitted>) -> &[Fd] {
    out.result.exact_fds().expect("exact miners emit FD lists")
}

fn rand_set(rng: &mut Prng, arity: usize) -> AttrSet {
    AttrSet::from_indices((0..arity).filter(|_| rng.gen_range(0..2u64) == 1))
}

fn rand_bytes(rng: &mut Prng, len: usize) -> Vec<u8> {
    (0..len).map(|_| rng.gen_range(0..256u64) as u8).collect()
}

// ---------------------------------------------------------------------
// 1. Frame codec
// ---------------------------------------------------------------------

#[test]
fn frames_round_trip_for_seeded_random_states() {
    let mut rng = Prng::seed_from_u64(0x54A9_0001);
    for algo in ["depminer", "tane", "tane-approx", "fdep", ""] {
        for _ in 0..8 {
            let cfg_len = rng.gen_range(0..32u64) as usize;
            let payload_len = rng.gen_range(0..512u64) as usize;
            let frame = Snapshot {
                algo: algo.to_string(),
                schema_hash: rng.next_u64(),
                config: rand_bytes(&mut rng, cfg_len),
                payload: rand_bytes(&mut rng, payload_len),
            };
            let bytes = frame.encode();
            let back = Snapshot::decode(&bytes).expect("pristine frame decodes");
            assert_eq!(back, frame);
        }
    }
}

#[test]
fn every_truncation_of_a_frame_is_rejected_with_a_position() {
    let mut rng = Prng::seed_from_u64(0x54A9_0002);
    let frame = Snapshot {
        algo: "tane".to_string(),
        schema_hash: rng.next_u64(),
        config: rand_bytes(&mut rng, 5),
        payload: rand_bytes(&mut rng, 90),
    };
    let bytes = frame.encode();
    for cut in 0..bytes.len() {
        match Snapshot::decode(&bytes[..cut]) {
            Err(SnapshotError::Corrupt { at, .. }) => {
                assert!(at <= cut as u64, "cut {cut}: position {at} past the data")
            }
            Err(other) => panic!("cut {cut}: expected Corrupt, got {other}"),
            Ok(_) => panic!("cut {cut}: truncated frame decoded"),
        }
    }
    // Trailing garbage after a valid frame must be refused too: the torn
    // writer never produces it, so its presence means foul play.
    let mut padded = bytes.clone();
    padded.extend_from_slice(&[0, 1, 2]);
    assert!(Snapshot::decode(&padded).is_err(), "padded frame decoded");
}

#[test]
fn every_single_bit_flip_in_a_frame_is_rejected() {
    let mut rng = Prng::seed_from_u64(0x54A9_0003);
    let frame = Snapshot {
        algo: "depminer".to_string(),
        schema_hash: rng.next_u64(),
        config: rand_bytes(&mut rng, 9),
        payload: rand_bytes(&mut rng, 120),
    };
    let bytes = frame.encode();
    for byte in 0..bytes.len() {
        for bit in 0..8 {
            let mut mutated = bytes.clone();
            mutated[byte] ^= 1 << bit;
            match Snapshot::decode(&mutated) {
                Err(SnapshotError::Corrupt { .. }) => {}
                Err(other) => panic!("byte {byte} bit {bit}: expected Corrupt, got {other}"),
                Ok(_) => panic!("byte {byte} bit {bit}: corrupted frame decoded"),
            }
        }
    }
}

#[test]
fn version_skew_is_reported_as_skew_not_corruption() {
    let frame = Snapshot {
        algo: "tane".to_string(),
        schema_hash: 42,
        config: vec![1, 1],
        payload: vec![7; 16],
    };
    let mut bytes = frame.encode();
    // Bump the u16 format version (offset 8, little-endian) and restamp
    // the CRC so only the version disagrees.
    bytes[8] = 2;
    bytes[9] = 0;
    let body = bytes.len() - 4;
    let crc = crc32(&bytes[..body]).to_le_bytes();
    bytes[body..].copy_from_slice(&crc);
    match Snapshot::decode(&bytes) {
        Err(SnapshotError::VersionSkew { found, expected }) => {
            assert_eq!(found, 2);
            assert_eq!(expected, 1);
        }
        other => panic!("expected VersionSkew, got {other:?}"),
    }
}

// ---------------------------------------------------------------------
// 2. Checkpoint payload codecs
// ---------------------------------------------------------------------

#[test]
fn depminer_checkpoints_round_trip_for_seeded_states() {
    let r = datasets::employee();
    let agree = agree_sets_naive(&r);
    let max = cmax_sets(&agree);
    let mut rng = Prng::seed_from_u64(0x54A9_0010);
    for i in 0..24 {
        let arity = r.arity();
        let cp = DepMinerCheckpoint {
            agree: (i % 3 != 0).then(|| agree.clone()),
            max: (i % 2 == 0).then(|| max.clone()),
            families: (0..arity)
                .map(|_| {
                    (rng.gen_range(0..3u64) > 0).then(|| {
                        (0..rng.gen_range(0..4u64))
                            .map(|_| rand_set(&mut rng, arity))
                            .collect()
                    })
                })
                .collect(),
            couples: rng.next_u64(),
            candidates: rng.next_u64(),
        };
        let payload = cp.encode_payload();
        let back = DepMinerCheckpoint::decode_payload(&payload).expect("round trip");
        assert_eq!(back, cp, "iteration {i}");
    }
}

#[test]
fn tane_and_approx_checkpoints_round_trip_for_seeded_states() {
    let mut rng = Prng::seed_from_u64(0x54A9_0011);
    let arity = 9;
    for i in 0..24 {
        let fam = |rng: &mut Prng| -> Vec<AttrSet> {
            (0..rng.gen_range(0..5u64))
                .map(|_| rand_set(rng, arity))
                .collect()
        };
        let fds = |rng: &mut Prng| -> Vec<Fd> {
            (0..rng.gen_range(0..5u64))
                .map(|_| {
                    Fd::new(
                        rand_set(rng, arity),
                        rng.gen_range(0..arity as u64) as usize,
                    )
                })
                .collect()
        };
        let cp = TaneCheckpoint {
            completed_levels: rng.gen_range(0..6u64) as usize,
            frontier: fam(&mut rng),
            prev_errs: fam(&mut rng)
                .into_iter()
                .map(|s| (s, rng.next_u64()))
                .collect(),
            cplus: fam(&mut rng)
                .into_iter()
                .map(|s| (s, rand_set(&mut rng, arity)))
                .collect(),
            fds: fds(&mut rng),
            candidates: rng.next_u64(),
            products: rng.next_u64(),
        };
        let back = TaneCheckpoint::decode_payload(&cp.encode_payload()).expect("tane round trip");
        assert_eq!(back, cp, "tane iteration {i}");

        let cp = ApproxCheckpoint {
            completed_levels: rng.gen_range(0..6u64) as usize,
            frontier: fam(&mut rng),
            found: (0..arity).map(|_| fam(&mut rng)).collect(),
            out: fds(&mut rng)
                .into_iter()
                .map(|fd| ApproxFd {
                    fd,
                    error: rng.gen_range(0..1000u64) as f64 / 1000.0,
                })
                .collect(),
            candidates: rng.next_u64(),
        };
        let back =
            ApproxCheckpoint::decode_payload(&cp.encode_payload()).expect("approx round trip");
        assert_eq!(back, cp, "approx iteration {i}");

        let cp = FdepCheckpoint {
            negative: (0..arity).map(|_| fam(&mut rng)).collect(),
            completed_attrs: rng.gen_range(0..arity as u64) as usize,
            fds: fds(&mut rng),
            couples: rng.next_u64(),
            candidates: rng.next_u64(),
        };
        let back = FdepCheckpoint::decode_payload(&cp.encode_payload()).expect("fdep round trip");
        assert_eq!(back, cp, "fdep iteration {i}");
    }
}

#[test]
fn truncated_checkpoint_payloads_fail_with_positioned_errors() {
    let mut rng = Prng::seed_from_u64(0x54A9_0012);
    let arity = 6;
    let cp = TaneCheckpoint {
        completed_levels: 2,
        frontier: (0..4).map(|_| rand_set(&mut rng, arity)).collect(),
        prev_errs: (0..3)
            .map(|_| (rand_set(&mut rng, arity), rng.next_u64()))
            .collect(),
        cplus: (0..3)
            .map(|_| (rand_set(&mut rng, arity), rand_set(&mut rng, arity)))
            .collect(),
        fds: vec![Fd::new(AttrSet::singleton(0), 3)],
        candidates: 17,
        products: 5,
    };
    let payload = cp.encode_payload();
    for cut in 0..payload.len() {
        match TaneCheckpoint::decode_payload(&payload[..cut]) {
            Err(SnapshotError::Corrupt { at, .. }) => {
                assert!(at <= cut as u64, "cut {cut}: position {at} past the data")
            }
            Err(other) => panic!("cut {cut}: expected Corrupt, got {other}"),
            Ok(_) => panic!("cut {cut}: truncated payload decoded"),
        }
    }
}

// ---------------------------------------------------------------------
// 3. Resume contract
// ---------------------------------------------------------------------

#[test]
fn depminer_resume_completes_to_the_exact_baseline() {
    let r = workload();
    let db = StrippedPartitionDb::from_relation(&r);
    let miner = DepMiner::algorithm_2(None);
    let baseline = miner.mine(&r).fds;
    // With the baseline equal to the oracle's minimal cover, every resume
    // that reproduces it claims only FDs that hold with minimal lhs.
    assert_eq!(baseline, mine_minimal_fds(&r));
    let dir = tmp_dir("depminer_resume");
    let path = dir.join(format!("{DEPMINER_ALGO}.snap"));
    let mut resumed = 0;
    // Candidate caps trip the transversal stage at different depths;
    // boundary snapshots from the completed agree/maxset stages (and the
    // forced per-attribute state at the trip) must all resume exactly.
    for max in [1u64, 5, 20, 100, 4000] {
        let policy = SnapshotPolicy::new(&dir).every_boundaries(1);
        let token = Budget::unlimited()
            .with_max_candidates(max)
            .start_with_snapshots(policy);
        let outcome = miner.mine_db_governed(&db, &token, None);
        if outcome.is_complete() {
            assert_eq!(outcome.result.fds, baseline, "max-candidates {max}");
            assert!(!path.exists(), "completed run must discard its snapshot");
            continue;
        }
        assert!(path.exists(), "tripped run left no snapshot (max {max})");
        let snap = read_snapshot(&path).unwrap();
        let out = resume(&r, &miner, &snap, Budget::unlimited(), None)
            .expect("pristine snapshot resumes");
        assert!(out.is_complete(), "max-candidates {max}");
        assert_eq!(exact(&out), baseline, "max-candidates {max}");
        resumed += 1;
        std::fs::remove_file(&path).ok();
    }
    assert!(
        resumed >= 2,
        "sweep tripped only {resumed} times; workload too small"
    );
}

#[test]
fn tane_chained_resumes_reach_the_exact_baseline() {
    let r = workload();
    let db = StrippedPartitionDb::from_relation(&r);
    let tane = Tane::new();
    let baseline = tane.run(&r).fds;
    let dir = tmp_dir("tane_chain");
    let path = dir.join(format!("{TANE_ALGO}.snap"));

    let policy = SnapshotPolicy::new(&dir).every_boundaries(1);
    let token = Budget::unlimited()
        .with_max_candidates(4)
        .start_with_snapshots(policy);
    let first = tane.run_db_governed(&db, &token, None);
    assert!(!first.is_complete(), "cap of 4 candidates must trip");

    // Each leg re-arms the policy and gets a slightly larger cap; carried
    // spend counts against it, so the caps must grow for progress.
    let mut cap = 4u64;
    for leg in 0..64 {
        assert!(path.exists(), "leg {leg}: tripped run left no snapshot");
        cap += 40;
        let snap = read_snapshot(&path).unwrap();
        let out = resume(
            &r,
            &tane,
            &snap,
            Budget::unlimited().with_max_candidates(cap),
            Some(SnapshotPolicy::new(&dir).every_boundaries(1)),
        )
        .expect("pristine snapshot resumes");
        if out.is_complete() {
            assert_eq!(exact(&out), baseline, "after {leg} chained resumes");
            assert!(!path.exists(), "completed resume must discard the snapshot");
            return;
        }
    }
    panic!("64 chained resumes never completed");
}

#[test]
fn fdep_resume_under_the_same_candidate_cap_trips_again() {
    let r = workload();
    let db = StrippedPartitionDb::from_relation(&r);
    let fdep = Fdep::new();
    let dir = tmp_dir("fdep_cap");
    let path = dir.join(format!("{FDEP_ALGO}.snap"));
    // Three quarters of what an uninterrupted run charges trips late in
    // the inversion, after several rhs attributes are inverted.
    let token = Budget::unlimited().start();
    assert!(fdep.run_db_governed(&db, &token, None).is_complete());
    let cap = token.candidates() * 3 / 4;

    let policy = SnapshotPolicy::new(&dir).every_boundaries(1);
    let token = Budget::unlimited()
        .with_max_candidates(cap)
        .start_with_snapshots(policy);
    let first = fdep.run_db_governed(&db, &token, None);
    let why = first.interrupted.expect("the cap must trip");
    assert_eq!(why.resource, Resource::Candidates);
    assert_eq!(why.stage, Some(Stage::FdepInversion));

    // The frame carries the candidates charged before the interrupted rhs,
    // so the resume re-inverts that rhs against the same cap and trips
    // again; a frame that forgot its spend would let it finish.
    let snap = read_snapshot(&path).unwrap();
    let budget = Budget::unlimited().with_max_candidates(cap);
    let out = resume(&r, &fdep, &snap, budget, None).expect("pristine snapshot resumes");
    let why = out
        .interrupted
        .expect("carried spend counts against the cap");
    assert_eq!(why.resource, Resource::Candidates);
}

#[test]
fn approx_resume_completes_to_the_exact_baseline() {
    let r = workload();
    let db = StrippedPartitionDb::from_relation(&r);
    let epsilon = 0.05;
    let baseline = approximate_fds(&r, epsilon);
    let dir = tmp_dir("approx_resume");
    let path = dir.join(format!("{TANE_APPROX_ALGO}.snap"));
    let mut resumed = 0;
    for max in [1u64, 10, 60, 300] {
        let policy = SnapshotPolicy::new(&dir).every_boundaries(1);
        let token = Budget::unlimited()
            .with_max_candidates(max)
            .start_with_snapshots(policy);
        let outcome = approximate_fds_governed(&r, &db, epsilon, &token, None);
        if outcome.is_complete() {
            assert_eq!(outcome.result, baseline, "max-candidates {max}");
            continue;
        }
        assert!(path.exists(), "tripped run left no snapshot (max {max})");
        let snap = read_snapshot(&path).unwrap();
        let out = resume(
            &r,
            &ApproxMiner { epsilon },
            &snap,
            Budget::unlimited(),
            None,
        )
        .expect("pristine snapshot resumes");
        assert!(out.is_complete(), "max-candidates {max}");
        let fds = baseline.clone();
        assert_eq!(
            out.result,
            Emitted::ApproxFds { fds, epsilon },
            "max-candidates {max}"
        );
        resumed += 1;
        std::fs::remove_file(&path).ok();
    }
    assert!(
        resumed >= 2,
        "sweep tripped only {resumed} times; workload too small"
    );
}

#[test]
fn mismatched_frames_are_refused_before_any_mining() {
    let r = workload();
    let db = StrippedPartitionDb::from_relation(&r);
    let tane = Tane::new();
    let dir = tmp_dir("mismatch");
    let path = dir.join(format!("{TANE_ALGO}.snap"));
    let policy = SnapshotPolicy::new(&dir).every_boundaries(1);
    let token = Budget::unlimited()
        .with_max_candidates(4)
        .start_with_snapshots(policy);
    assert!(!tane.run_db_governed(&db, &token, None).is_complete());
    let snap = read_snapshot(&path).unwrap();
    let refused = |r: &Relation, miner: &dyn Miner, snap: &Snapshot| {
        let err = resume(r, miner, snap, Budget::unlimited(), None)
            .map(|_| ())
            .unwrap_err();
        assert!(matches!(err, SnapshotError::Mismatch { .. }), "{err}");
    };

    // Wrong algorithm: a TANE frame offered to Dep-Miner.
    refused(&r, &DepMiner::algorithm_2(None), &snap);

    // Wrong configuration: pruning switches differ.
    let mut unpruned = Tane::new();
    unpruned.key_pruning = false;
    refused(&r, &unpruned, &snap);

    // Wrong relation: the fingerprint catches a changed input.
    let other = SyntheticConfig {
        seed: 0x0DD_BA11,
        ..SyntheticConfig::new(7, 60, 0.6)
    }
    .generate()
    .unwrap();
    refused(&other, &tane, &snap);

    // Payloads that do not fit the relation, inside CRC-valid frames
    // stamped as the miner's own run on `r` would stamp them, are
    // refused before any mining.
    let misfit = |miner: &dyn Miner, payload: Vec<u8>| {
        let snap = Snapshot {
            algo: miner.algo_id().to_string(),
            schema_hash: db_fingerprint(&db),
            config: miner.config_bytes(),
            payload,
        };
        refused(&r, miner, &snap);
    };
    let arity = r.arity();
    let set = |attrs: &[usize]| AttrSet::from_indices(attrs.iter().copied());
    // FDEP: a negative cover one attribute short.
    let cp = FdepCheckpoint {
        negative: vec![Vec::new(); arity - 1],
        completed_attrs: 0,
        fds: Vec::new(),
        couples: 0,
        candidates: 0,
    };
    misfit(&Fdep::new(), cp.encode_payload());
    // FDEP: an FD prefix out of (rhs, lhs) order, which the resumed run
    // would append to unsorted.
    let mut fds = Fdep::new().run(&r).fds;
    fds.reverse();
    let cp = FdepCheckpoint {
        negative: vec![Vec::new(); arity],
        completed_attrs: arity,
        fds,
        ..cp
    };
    misfit(&Fdep::new(), cp.encode_payload());
    // FDEP: an ordered FD prefix naming an rhs it has not inverted yet.
    let cp = FdepCheckpoint {
        completed_attrs: 1,
        fds: Fdep::new().run(&r).fds,
        ..cp
    };
    assert!(cp.fds.iter().any(|fd| fd.rhs >= 1));
    misfit(&Fdep::new(), cp.encode_payload());
    // Dep-Miner: max sets of a 3-attribute relation.
    let cp = DepMinerCheckpoint {
        agree: Some(agree_sets_naive(&r)),
        max: Some(MaxSets {
            max: vec![Vec::new(); 3],
            cmax: vec![Vec::new(); 3],
            arity: 3,
        }),
        families: Vec::new(),
        couples: 0,
        candidates: 0,
    };
    misfit(&DepMiner::algorithm_2(None), cp.encode_payload());
    // Dep-Miner: a restored lhs family out of order, which `fd_output`
    // would emit as it stands.
    let ag = agree_sets_naive(&r);
    let ms = cmax_sets(&ag);
    let mut families: Vec<Option<Vec<AttrSet>>> =
        left_hand_sides(&ms, TransversalEngine::Levelwise)
            .into_iter()
            .map(Some)
            .collect();
    let wide = families.iter_mut().flatten().find(|f| f.len() > 1).unwrap();
    wide.reverse();
    let cp = DepMinerCheckpoint {
        agree: Some(ag),
        max: Some(ms),
        families,
        couples: 0,
        candidates: 0,
    };
    misfit(&DepMiner::algorithm_2(None), cp.encode_payload());
    // Approximate TANE: `found` one list short.
    let cp = ApproxCheckpoint {
        completed_levels: 0,
        frontier: (0..arity).map(AttrSet::singleton).collect(),
        found: vec![Vec::new(); arity - 1],
        out: Vec::new(),
        candidates: 0,
    };
    misfit(&ApproxMiner { epsilon: 0.05 }, cp.encode_payload());
    // TANE: a frontier set naming attribute 40 of 7.
    let all = AttrSet::full(arity);
    let cp = TaneCheckpoint {
        completed_levels: 1,
        frontier: vec![set(&[0, 40])],
        prev_errs: vec![(set(&[0]), 0), (set(&[40]), 0)],
        cplus: vec![(set(&[0]), all), (set(&[40]), all)],
        fds: Vec::new(),
        candidates: 0,
        products: 0,
    };
    misfit(&tane, cp.encode_payload());
    // TANE: a level-2 frontier whose subsets carry no C⁺ or error.
    let cp = TaneCheckpoint {
        frontier: vec![set(&[0, 1])],
        prev_errs: Vec::new(),
        cplus: Vec::new(),
        ..cp
    };
    misfit(&tane, cp.encode_payload());
    // TANE: more complete levels than the relation has attributes.
    let cp = TaneCheckpoint {
        completed_levels: usize::MAX,
        frontier: Vec::new(),
        ..cp
    };
    misfit(&tane, cp.encode_payload());

    // Approximate TANE: a fitting payload under a threshold that
    // `approx --epsilon` refuses is refused as the frame is read, before
    // the registry builds a miner from it.
    let fits = ApproxCheckpoint {
        completed_levels: 0,
        frontier: (0..arity).map(AttrSet::singleton).collect(),
        found: vec![Vec::new(); arity],
        out: Vec::new(),
        candidates: 0,
    };
    let approx_frame = |epsilon: f64| Snapshot {
        algo: TANE_APPROX_ALGO.to_string(),
        schema_hash: db_fingerprint(&db),
        config: approx_config_bytes(epsilon),
        payload: fits.encode_payload(),
    };
    let from_frame = |snap: &Snapshot| {
        MinerRegistry::standard()
            .from_frame(snap)
            .and_then(|miner| {
                resume(&r, miner.as_ref(), snap, Budget::unlimited(), None).map(|out| out.result)
            })
    };
    for epsilon in [-0.5, f64::NAN, 7.0] {
        let err = from_frame(&approx_frame(epsilon)).unwrap_err();
        assert!(
            matches!(err, SnapshotError::Mismatch { .. }),
            "epsilon {epsilon}: {err}"
        );
    }
    // The same payload under an accepted threshold resumes to a full run.
    let fds = approximate_fds(&r, 0.05);
    assert_eq!(
        from_frame(&approx_frame(0.05)).unwrap(),
        Emitted::ApproxFds { fds, epsilon: 0.05 }
    );

    // CRC-valid Dep-Miner frames, with a payload that fits `r`, of two
    // retired variants an older build may have left on disk: strategy tag
    // 0 (a naive agree-set scan) and engine tag 2 (a DFS transversal
    // engine). The registry refuses both as the frame is read.
    let fresh = DepMinerCheckpoint {
        agree: None,
        max: None,
        families: Vec::new(),
        couples: 0,
        candidates: 0,
    };
    let alg2_unbounded = [1, 0, 0, 0, 0, 0, 0, 0, 0];
    for config in [vec![0, 0], [&alg2_unbounded[..], &[2]].concat()] {
        let frame = Snapshot {
            algo: DEPMINER_ALGO.to_string(),
            schema_hash: db_fingerprint(&db),
            config,
            payload: fresh.encode_payload(),
        };
        let frame = Snapshot::decode(&frame.encode()).unwrap();
        let err = from_frame(&frame).unwrap_err();
        assert!(
            matches!(err, SnapshotError::Mismatch { .. }),
            "config {:?}: {err}",
            frame.config
        );
    }

    // A repeated frontier set, which no walk writes: each miner's own
    // frame past level 1 with its first frontier set doubled. Resumed, it
    // would rebuild that set's partition twice and leave the first one's
    // bytes charged.
    let dup_dir = tmp_dir("mismatch_dup");
    let tripped = |name: &str, mine: &dyn Fn(&CancelToken)| {
        let policy = SnapshotPolicy::new(&dup_dir).every_boundaries(1);
        mine(
            &Budget::unlimited()
                .with_max_candidates(10)
                .start_with_snapshots(policy),
        );
        read_snapshot(&dup_dir.join(format!("{name}.snap"))).unwrap()
    };
    let frame = tripped(TANE_ALGO, &|token| {
        assert!(!tane.run_db_governed(&db, token, None).is_complete());
    });
    let mut cp = TaneCheckpoint::decode_payload(&frame.payload).unwrap();
    assert_eq!(cp.completed_levels, 1);
    cp.frontier.insert(1, cp.frontier[0]);
    misfit(&tane, cp.encode_payload());
    let frame = tripped(TANE_APPROX_ALGO, &|token| {
        assert!(!approximate_fds_governed(&r, &db, 0.05, token, None).is_complete());
    });
    let mut cp = ApproxCheckpoint::decode_payload(&frame.payload).unwrap();
    assert_eq!(cp.completed_levels, 1);
    cp.frontier.insert(1, cp.frontier[0]);
    misfit(&ApproxMiner { epsilon: 0.05 }, cp.encode_payload());

    // And the pristine frame still resumes fine after all the refusals.
    let out = resume(&r, &tane, &snap, Budget::unlimited(), None).unwrap();
    assert!(out.is_complete());
    assert_eq!(exact(&out), tane.run(&r).fds);
}

/// Frames written before exact and approximate TANE shared one level walk
/// (commit c35e9ae), checked in under `tests/frames/`: `workload()`
/// tripped by `Budget::with_max_candidates(30)` after two complete levels,
/// under `SnapshotPolicy::every_boundaries(1)`. Their payload format is
/// unchanged, so both resume to the full FD sets.
#[test]
fn frames_written_before_the_shared_walk_resume_to_the_full_fd_sets() {
    let r = workload();
    let frame = |name: &str| {
        let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/frames");
        read_snapshot(&dir.join(format!("{name}.snap"))).expect("checked-in frame reads")
    };
    let snap = frame(TANE_ALGO);
    let cp = TaneCheckpoint::decode_payload(&snap.payload).unwrap();
    assert_eq!(cp.completed_levels, 2);
    let out = resume(&r, &Tane::new(), &snap, Budget::unlimited(), None).expect("resumes");
    assert!(out.is_complete());
    assert_eq!(exact(&out), Tane::new().run(&r).fds);

    let epsilon = 0.05;
    let snap = frame(TANE_APPROX_ALGO);
    let cp = ApproxCheckpoint::decode_payload(&snap.payload).unwrap();
    assert_eq!(cp.completed_levels, 2);
    let miner = ApproxMiner { epsilon };
    let out = resume(&r, &miner, &snap, Budget::unlimited(), None).expect("resumes");
    assert!(out.is_complete());
    let fds = approximate_fds(&r, epsilon);
    assert_eq!(out.result, Emitted::ApproxFds { fds, epsilon });
}
