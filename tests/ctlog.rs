//! Integration: the verifiable CT ecosystem end to end — submit → prove →
//! audit — on both hand-built shards and a generated world, all
//! deterministic.

use app_tls_pinning::crypto::sig::KeyPair;
use app_tls_pinning::crypto::SplitMix64;
use app_tls_pinning::ctlog::{
    verify_consistency, verify_inclusion, LogSet, LogShard, Monitor, PinResolver, ShardPolicy,
};
use app_tls_pinning::pki::authority::CertificateAuthority;
use app_tls_pinning::pki::name::DistinguishedName;
use app_tls_pinning::pki::pin::PinAlgorithm;
use app_tls_pinning::pki::time::{SimTime, Validity, YEAR};
use app_tls_pinning::store::config::WorldConfig;
use app_tls_pinning::store::world::World;
use std::collections::{BTreeMap, BTreeSet};

fn world() -> World {
    World::generate(WorldConfig::tiny(0xCE27))
}

#[test]
fn every_world_log_entry_has_a_verifying_inclusion_proof() {
    let w = world();
    assert!(!w.ctlog.is_empty());
    for shard in w.ctlog.shards() {
        let sth = shard.log.signed_tree_head(w.now);
        assert!(sth.verify(shard.log.public_key()), "{}", shard.name);
        assert_eq!(sth.tree_size, shard.log.len() as u64);
        for index in 0..sth.tree_size {
            let leaf = shard.log.leaf_hash(index).expect("leaf exists");
            let proof = shard
                .log
                .inclusion_proof(index, sth.tree_size)
                .expect("proof exists");
            assert!(
                verify_inclusion(&leaf, index, sth.tree_size, &proof, &sth.root_hash),
                "{} entry {index}",
                shard.name
            );
        }
    }
}

#[test]
fn monitor_tails_a_growing_log_and_stays_clean() {
    // Incremental growth: a monitor checkpoints each shard after every
    // batch; consistency and inclusion must hold at every step.
    let mut rng = SplitMix64::new(0xC7);
    let now = SimTime::at(5, 0, 0);
    let mut set = LogSet::sim_ecosystem(now, 0.6, 0.7, &mut rng);
    let mut root = CertificateAuthority::new_root(
        DistinguishedName::new("Audit Root", "Sim", "US"),
        &mut rng,
        SimTime(0),
    );
    let mut monitor = Monitor::new();
    for batch in 0..6 {
        for i in 0..10 {
            let key = KeyPair::generate(&mut rng);
            let cert = root.issue_leaf(
                &[format!("b{batch}-h{i}.example")],
                "Org",
                &key,
                Validity::starting(now - 30 * 86_400, YEAR),
            );
            set.submit(&cert);
        }
        monitor.observe_set(&set, now + batch);
        assert!(
            monitor.is_clean(),
            "batch {batch}: {:?}",
            monitor.findings()
        );
    }
    for shard in set.shards() {
        assert_eq!(
            monitor.checkpoint_size(&shard.name),
            Some(shard.log.len() as u64),
            "{}",
            shard.name
        );
    }
    // Replay consistency proofs across the whole growth range directly.
    for shard in set.shards() {
        let n = shard.log.len() as u64;
        for old in 0..=n {
            let proof = shard.log.consistency_proof(old).expect("old <= n");
            assert!(verify_consistency(
                old,
                n,
                &shard.log.root_at(old).expect("size valid"),
                &shard.log.root(),
                &proof
            ));
        }
    }
}

#[test]
fn equivocating_sth_and_misissued_cert_are_flagged() {
    let mut rng = SplitMix64::new(0xF1A6);
    let window = Validity {
        not_before: SimTime::EPOCH,
        not_after: SimTime(u64::MAX),
    };
    let mut set = LogSet::new();
    set.push_shard(LogShard::new(
        "rogue",
        "Rogue Op",
        ShardPolicy::open(window),
        KeyPair::generate(&mut rng),
    ));
    let mut root = CertificateAuthority::new_root(
        DistinguishedName::new("Root", "Sim", "US"),
        &mut rng,
        SimTime(0),
    );
    let honest_key = KeyPair::generate(&mut rng);
    let honest = root.issue_leaf(
        &["bank.example".to_string()],
        "Bank",
        &honest_key,
        Validity::starting(SimTime(0), YEAR),
    );
    // A second certificate for the same hostname under a different key:
    // exactly what CT monitoring exists to surface.
    let rogue_key = KeyPair::generate(&mut rng);
    let rogue = root.issue_leaf(
        &["bank.example".to_string()],
        "Bank",
        &rogue_key,
        Validity::starting(SimTime(0), YEAR),
    );
    assert_eq!(set.submit(&honest), 1);
    assert_eq!(set.submit(&rogue), 1);

    let mut monitor = Monitor::new();
    monitor.observe_set(&set, SimTime(10));
    assert!(
        monitor.is_clean(),
        "honest observation: {:?}",
        monitor.findings()
    );

    // Equivocation: the log signs a head whose root does not match its
    // entries. The signature is genuine, so the monitor must catch it via
    // inclusion (no checkpoint) or consistency (with checkpoint) instead.
    let shard = &set.shards()[0];
    let forged = shard
        .log
        .sign_head(shard.log.len() as u64, SimTime(11), [9u8; 32]);
    let new = monitor.observe_sth("rogue", shard.log.public_key(), &shard.log, forged);
    assert!(new > 0, "forged root must be flagged");
    // The rejected head must not advance the checkpoint.
    assert_eq!(monitor.checkpoint_size("rogue"), Some(2));

    // Mis-issuance: ground truth says bank.example is keyed by honest_key.
    let mut truth = BTreeMap::new();
    truth.insert("bank.example".to_string(), honest.spki_sha256());
    let flagged = monitor.audit_misissuance(&set, &truth);
    assert_eq!(
        flagged,
        1,
        "exactly the rogue cert: {:?}",
        monitor.findings()
    );
    let rendered = monitor
        .findings()
        .iter()
        .map(|f| f.to_string())
        .collect::<Vec<_>>()
        .join("\n");
    assert!(rendered.contains("bank.example"), "{rendered}");
}

#[test]
fn resolver_matches_direct_lookup_with_one_query_per_unique_pin() {
    let w = world();
    // Every SPKI digest served on the network, resolvable or not.
    let mut digests: BTreeSet<Vec<u8>> = BTreeSet::new();
    for server in w.network.servers() {
        for cert in server.chain.certs() {
            digests.insert(cert.spki_sha256().to_vec());
        }
    }
    let resolver = PinResolver::new(&w.ctlog);
    for _ in 0..3 {
        for digest in &digests {
            let direct: Vec<Vec<u8>> = w
                .ctlog
                .search_by_spki_digest(PinAlgorithm::Sha256, digest)
                .iter()
                .map(|c| c.to_der())
                .collect();
            let cached: Vec<Vec<u8>> = resolver
                .resolve(PinAlgorithm::Sha256, digest)
                .iter()
                .map(|c| c.to_der())
                .collect();
            assert_eq!(direct, cached);
        }
    }
    let stats = resolver.stats();
    assert_eq!(stats.misses as usize, digests.len(), "one lookup per pin");
    assert_eq!(stats.hits as usize, 2 * digests.len());
    assert!(stats.resolved_unique > 0);
    assert!(
        (stats.resolved_unique as usize) < digests.len(),
        "partial coverage"
    );
}

#[test]
fn world_coverage_is_partial_and_spread_across_shards() {
    let w = world();
    // Each shard of the 2-operator × 2-epoch topology accepted something.
    assert_eq!(w.ctlog.shards().len(), 4);
    for shard in w.ctlog.shards() {
        assert!(!shard.log.is_empty(), "{} empty", shard.name);
    }
    // Temporal sharding routed by not_before: legacy shards hold the CA
    // material (issued at the epoch), current shards hold recent leaves.
    for shard in w.ctlog.shards() {
        for e in shard.log.iter() {
            assert!(
                shard.policy.window.contains(e.cert.tbs.validity.not_before),
                "{} holds out-of-window entry",
                shard.name
            );
        }
    }
    // Union coverage over served public chains is strictly partial.
    let (mut logged, mut unlogged) = (0usize, 0usize);
    for server in w.network.servers() {
        for cert in server.chain.certs() {
            if w.ctlog
                .search_by_fingerprint(&cert.fingerprint_sha256())
                .is_some()
            {
                logged += 1;
            } else {
                unlogged += 1;
            }
        }
    }
    assert!(logged > 0, "no cert logged at all");
    assert!(unlogged > 0, "coverage must stay incomplete (paper §4.1.3)");
    // Determinism: regenerating the world reproduces the exact ecosystem.
    let w2 = world();
    assert_eq!(w.ctlog.len(), w2.ctlog.len());
    for (a, b) in w.ctlog.shards().iter().zip(w2.ctlog.shards()) {
        assert_eq!(a.log.log_id(), b.log.log_id());
        assert_eq!(a.log.root(), b.log.root());
    }
}

// ---------------------------------------------------------------------
// Frozen outputs of the paths that read the Merkle tree: the serving
// front end's proofs and the report's CT section. The expected SHA-256s
// were computed when the tree still rebuilt every root and proof from its
// leaves, so a change in how it stores or walks subtrees that moves one
// output byte fails here.

use app_tls_pinning::core::{Study, StudyConfig};
use app_tls_pinning::crypto::{hex_encode, sha256};
use app_tls_pinning::pki::validate::{validate_chain_cached, RevocationList, ValidationOptions};
use app_tls_pinning::pki::Certificate;
use pinning_bench::load::{generate_load, LoadConfig};
use pinning_serve::{Backend, Outcome, Payload, PinService, RequestBody, ServeConfig};

#[test]
fn serve_responses_and_summary_hash_as_frozen() {
    let seed = 0x5EE7;
    let world = World::generate(WorldConfig::tiny(seed));
    let load = generate_load(&world, &LoadConfig::overload_smoke(seed));
    let config = ServeConfig {
        seed,
        workers: 2,
        queue_capacity: 32,
        brownout_high: 32,
        brownout_low: 8,
        backend_flakiness: 0.3,
        ..ServeConfig::default()
    };
    let (crl, options) = (RevocationList::empty(), ValidationOptions::default());
    // Complete the process-global validation memo over this trace first,
    // so the run's memo hits (and the deadline charges they save) do not
    // depend on what ran before it in this process.
    for req in &load.requests {
        let RequestBody::ValidateChain {
            hostname,
            chain_der,
        } = &req.body
        else {
            continue;
        };
        if let Ok(chain) = chain_der
            .iter()
            .map(|der| Certificate::from_der(der))
            .collect::<Result<Vec<Certificate>, _>>()
        {
            let store = &world.universe.aosp_oem;
            let _ = validate_chain_cached(&chain, store, hostname, world.now, &crl, &options);
        }
    }
    let backend = Backend {
        roots: &world.universe.aosp_oem,
        logs: &world.ctlog,
        crl,
        options,
        now: world.now,
    };
    let mut service = PinService::new(config, backend);
    let responses = service.run(&load.requests);
    let summary = service.summary(&responses);

    let proofs = responses
        .iter()
        .filter(|r| {
            matches!(
                r.outcome,
                Outcome::Ok(Payload::InclusionProof { verified: true, .. })
            )
        })
        .count();
    assert!(proofs > 0, "the trace must serve verified inclusion proofs");
    let digest = hex_encode(&sha256(format!("{responses:?}{summary:?}").as_bytes()));
    assert_eq!(
        digest, "36601b5969e60b37edbba2b9758c776e59cbd109282dfca72115edc7cb32d789",
        "serve responses or summary moved"
    );
}

#[test]
fn report_ct_section_hashes_as_frozen() {
    let ct = Study::new(StudyConfig::tiny(0xC7F0)).run().render_ct();
    assert!(ct.contains("shard"), "{ct}");
    let digest = hex_encode(&sha256(ct.as_bytes()));
    assert_eq!(
        digest, "45cf76c9e3373ff72c7e42508611a569f2b063824bf1a2dc81efca06c9dc95df",
        "CT section moved:\n{ct}"
    );
}
