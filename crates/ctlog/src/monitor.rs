//! CT monitoring and auditing.
//!
//! A monitor tails each log shard: it fetches successive signed tree
//! heads, verifies the signature, demands a consistency proof against its
//! last checkpoint (catching history rewrites and split views), and
//! verifies inclusion proofs for the entries added since. An auditor
//! additionally cross-checks *what* was logged: a logged certificate for a
//! hostname whose ground-truth key differs is mis-issuance — the attack CT
//! exists to surface.
//!
//! Every violation becomes a typed [`AuditFinding`]; an honest, consistent
//! ecosystem audits clean.

use crate::shard::{LogSet, LogShard};
use crate::sth::SignedTreeHead;
use crate::{merkle, CtLog};
use pinning_crypto::sig::PublicKey;
use pinning_pki::time::SimTime;
use std::collections::{BTreeMap, HashMap};

/// What a monitor/auditor can flag.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AuditFindingKind {
    /// The STH signature does not verify under the log's key.
    InvalidSthSignature {
        /// Claimed tree size of the rejected head.
        tree_size: u64,
    },
    /// The new head is not a consistent extension of the checkpoint.
    InconsistentSth {
        /// Checkpointed tree size.
        old_size: u64,
        /// Claimed new tree size.
        new_size: u64,
    },
    /// An entry's inclusion proof fails against the signed head.
    InvalidInclusion {
        /// Entry index whose proof failed.
        index: u64,
    },
    /// A logged end-entity certificate covers a hostname whose
    /// ground-truth key differs.
    MisIssuance {
        /// The affected hostname.
        hostname: String,
        /// Log entry index of the offending certificate.
        index: u64,
    },
}

impl AuditFindingKind {
    /// Short label for report rendering.
    pub fn label(&self) -> &'static str {
        match self {
            AuditFindingKind::InvalidSthSignature { .. } => "invalid STH signature",
            AuditFindingKind::InconsistentSth { .. } => "inconsistent STH",
            AuditFindingKind::InvalidInclusion { .. } => "invalid inclusion proof",
            AuditFindingKind::MisIssuance { .. } => "mis-issuance",
        }
    }
}

/// One finding, attributed to the shard that produced the evidence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuditFinding {
    /// Name of the shard/log.
    pub log_name: String,
    /// What went wrong.
    pub kind: AuditFindingKind,
}

impl std::fmt::Display for AuditFinding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.kind {
            AuditFindingKind::InvalidSthSignature { tree_size } => {
                write!(
                    f,
                    "{}: invalid STH signature (size {tree_size})",
                    self.log_name
                )
            }
            AuditFindingKind::InconsistentSth { old_size, new_size } => write!(
                f,
                "{}: inconsistent STH {old_size} -> {new_size}",
                self.log_name
            ),
            AuditFindingKind::InvalidInclusion { index } => {
                write!(
                    f,
                    "{}: invalid inclusion proof for entry {index}",
                    self.log_name
                )
            }
            AuditFindingKind::MisIssuance { hostname, index } => write!(
                f,
                "{}: mis-issued certificate for {hostname} (entry {index})",
                self.log_name
            ),
        }
    }
}

/// A monitor's per-log checkpoint: the last head it accepted.
#[derive(Debug, Clone)]
struct Checkpoint {
    sth: SignedTreeHead,
}

/// A CT monitor/auditor with per-log checkpoints and accumulated findings.
#[derive(Debug, Default)]
pub struct Monitor {
    checkpoints: HashMap<String, Checkpoint>,
    findings: Vec<AuditFinding>,
}

impl Monitor {
    /// Creates a monitor with no checkpoints.
    pub fn new() -> Self {
        Self::default()
    }

    /// All findings so far, in discovery order.
    pub fn findings(&self) -> &[AuditFinding] {
        &self.findings
    }

    /// Whether no violation has been found.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// The checkpointed tree size for a log, if any.
    pub fn checkpoint_size(&self, log_name: &str) -> Option<u64> {
        self.checkpoints.get(log_name).map(|c| c.sth.tree_size)
    }

    /// Observes one shard at `now`: asks the log for a fresh STH and runs
    /// [`Monitor::observe_sth`]. Returns the number of new findings.
    pub fn observe(&mut self, shard: &LogShard, now: SimTime) -> usize {
        let sth = shard.log.signed_tree_head(now);
        self.observe_sth(&shard.name, shard.log.public_key(), &shard.log, sth)
    }

    /// Observes every shard of a set at `now`.
    pub fn observe_set(&mut self, logs: &LogSet, now: SimTime) -> usize {
        logs.shards().iter().map(|s| self.observe(s, now)).sum()
    }

    /// Core monitoring step against an explicitly supplied STH (tests feed
    /// forged heads through here). Verifies, in order:
    ///
    /// 1. the STH signature under `public`;
    /// 2. consistency with the previous checkpoint (when one exists),
    ///    using a proof generated by the log;
    /// 3. inclusion of every entry added since the checkpoint, against the
    ///    new signed root.
    ///
    /// The checkpoint only advances when all checks pass; a rejected head
    /// leaves the old checkpoint in place, exactly so the *next* honest
    /// head is still compared against trusted state. Returns the number of
    /// new findings.
    pub fn observe_sth(
        &mut self,
        log_name: &str,
        public: &PublicKey,
        log: &CtLog,
        sth: SignedTreeHead,
    ) -> usize {
        let before = self.findings.len();
        if !sth.verify(public) {
            self.findings.push(AuditFinding {
                log_name: log_name.to_string(),
                kind: AuditFindingKind::InvalidSthSignature {
                    tree_size: sth.tree_size,
                },
            });
            return self.findings.len() - before;
        }
        let old = self.checkpoints.get(log_name).map(|c| c.sth.clone());
        let (old_size, consistent) = match &old {
            Some(cp) => {
                let proof = log
                    .consistency_proof_between(cp.tree_size, sth.tree_size)
                    .unwrap_or_default();
                (
                    cp.tree_size,
                    merkle::verify_consistency(
                        cp.tree_size,
                        sth.tree_size,
                        &cp.root_hash,
                        &sth.root_hash,
                        &proof,
                    ),
                )
            }
            None => (0, true),
        };
        if !consistent {
            self.findings.push(AuditFinding {
                log_name: log_name.to_string(),
                kind: AuditFindingKind::InconsistentSth {
                    old_size,
                    new_size: sth.tree_size,
                },
            });
            return self.findings.len() - before;
        }
        // Inclusion of every entry the checkpoint did not yet cover. Proofs
        // for the whole batch come from one authenticator over the signed
        // tree state instead of an O(log n) hashing walk per entry (proof
        // bytes are identical either way).
        let auth = (old_size < sth.tree_size)
            .then(|| log.authenticator(sth.tree_size))
            .flatten();
        let mut all_included = true;
        for index in old_size..sth.tree_size {
            let proof = auth.as_ref().and_then(|a| a.inclusion_proof(index));
            let ok = log
                .leaf_hash(index)
                .zip(proof)
                .map(|(leaf, proof)| {
                    merkle::verify_inclusion(&leaf, index, sth.tree_size, &proof, &sth.root_hash)
                })
                .unwrap_or(false);
            if !ok {
                all_included = false;
                self.findings.push(AuditFinding {
                    log_name: log_name.to_string(),
                    kind: AuditFindingKind::InvalidInclusion { index },
                });
            }
        }
        if all_included {
            self.checkpoints
                .insert(log_name.to_string(), Checkpoint { sth });
        }
        self.findings.len() - before
    }

    /// Audits logged content against ground truth: `truth` maps exact
    /// hostnames to the SHA-256 of the SPKI legitimately keyed for them. A
    /// logged end-entity certificate naming a known hostname (CN or exact
    /// SAN; wildcard SANs are skipped) under a *different* key is flagged
    /// as mis-issuance. Returns the number of new findings.
    pub fn audit_misissuance(
        &mut self,
        logs: &LogSet,
        truth: &BTreeMap<String, [u8; 32]>,
    ) -> usize {
        let before = self.findings.len();
        for shard in logs.shards() {
            for entry in shard.log.iter() {
                let cert = &entry.cert;
                if cert.tbs.is_ca {
                    continue;
                }
                let spki = cert.spki_sha256();
                let mut names: Vec<&str> = vec![&cert.tbs.subject.common_name];
                for san in &cert.tbs.san {
                    if !san.contains('*') && !names.contains(&san.as_str()) {
                        names.push(san);
                    }
                }
                for name in names {
                    if truth.get(name).is_some_and(|expected| *expected != spki) {
                        self.findings.push(AuditFinding {
                            log_name: shard.name.clone(),
                            kind: AuditFindingKind::MisIssuance {
                                hostname: name.to_string(),
                                index: entry.index,
                            },
                        });
                    }
                }
            }
        }
        self.findings.len() - before
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shard::ShardPolicy;
    use crate::LogShard;
    use pinning_crypto::sig::KeyPair;
    use pinning_crypto::SplitMix64;
    use pinning_pki::authority::CertificateAuthority;
    use pinning_pki::name::DistinguishedName;
    use pinning_pki::time::{Validity, YEAR};

    fn shard() -> LogShard {
        let window = Validity {
            not_before: SimTime::EPOCH,
            not_after: SimTime(u64::MAX),
        };
        LogShard::new(
            "test-shard",
            "Test Op",
            ShardPolicy::open(window),
            KeyPair::generate(&mut SplitMix64::new(0xAB)),
        )
    }

    fn leaf(rng: &mut SplitMix64, host: &str) -> pinning_pki::Certificate {
        let mut root = CertificateAuthority::new_root(
            DistinguishedName::new("Root", "Sim", "US"),
            rng,
            SimTime(0),
        );
        let key = KeyPair::generate(rng);
        root.issue_leaf(
            &[host.to_string()],
            "Org",
            &key,
            Validity::starting(SimTime(0), YEAR),
        )
    }

    #[test]
    fn honest_log_audits_clean_across_growth() {
        let mut rng = SplitMix64::new(1);
        let mut s = shard();
        let mut mon = Monitor::new();
        for round in 0..4u64 {
            for i in 0..3 {
                s.log.submit(leaf(&mut rng, &format!("r{round}h{i}.com")));
            }
            assert_eq!(mon.observe(&s, SimTime(round * 100)), 0);
            assert_eq!(mon.checkpoint_size("test-shard"), Some(s.log.len() as u64));
        }
        assert!(mon.is_clean());
    }

    #[test]
    fn forged_signature_flagged() {
        let mut rng = SplitMix64::new(2);
        let mut s = shard();
        s.log.submit(leaf(&mut rng, "a.com"));
        let mut sth = s.log.signed_tree_head(SimTime(10));
        sth.signature.0[0] ^= 1;
        let mut mon = Monitor::new();
        mon.observe_sth(&s.name, s.log.public_key(), &s.log, sth);
        assert!(matches!(
            mon.findings()[0].kind,
            AuditFindingKind::InvalidSthSignature { tree_size: 1 }
        ));
        // Rejected head must not advance the checkpoint.
        assert_eq!(mon.checkpoint_size("test-shard"), None);
    }

    #[test]
    fn rewritten_history_flagged_as_inconsistent() {
        let mut rng = SplitMix64::new(3);
        let mut s = shard();
        s.log.submit(leaf(&mut rng, "a.com"));
        s.log.submit(leaf(&mut rng, "b.com"));
        let mut mon = Monitor::new();
        assert_eq!(mon.observe(&s, SimTime(10)), 0);
        // The log "rewrites history": signs a head whose root does not
        // extend the checkpointed tree.
        s.log.submit(leaf(&mut rng, "c.com"));
        let honest = s.log.signed_tree_head(SimTime(20));
        let forged = s.log.sign_head(honest.tree_size, SimTime(20), [9u8; 32]);
        mon.observe_sth(&s.name, s.log.public_key(), &s.log, forged);
        assert!(matches!(
            mon.findings()[0].kind,
            AuditFindingKind::InconsistentSth {
                old_size: 2,
                new_size: 3
            }
        ));
        // Checkpoint survived; the honest head still verifies against it.
        assert_eq!(mon.checkpoint_size("test-shard"), Some(2));
        assert_eq!(
            mon.observe_sth(&s.name, s.log.public_key(), &s.log, honest),
            0
        );
    }

    #[test]
    fn misissuance_flagged_against_truth() {
        let mut rng = SplitMix64::new(4);
        let mut set = LogSet::new();
        set.push_shard(shard());
        let good = leaf(&mut rng, "bank.com");
        let rogue = leaf(&mut rng, "bank.com"); // different key, same name
        let mut truth = BTreeMap::new();
        truth.insert("bank.com".to_string(), good.spki_sha256());
        // Only the good cert logged: clean.
        set.submit(&good);
        let mut mon = Monitor::new();
        assert_eq!(mon.audit_misissuance(&set, &truth), 0);
        // Rogue cert appears in the log: flagged.
        set.submit(&rogue);
        assert_eq!(mon.audit_misissuance(&set, &truth), 1);
        assert!(matches!(
            &mon.findings()[0].kind,
            AuditFindingKind::MisIssuance { hostname, .. } if hostname == "bank.com"
        ));
    }

    #[test]
    fn finding_display_is_informative() {
        let f = AuditFinding {
            log_name: "argon-current".into(),
            kind: AuditFindingKind::MisIssuance {
                hostname: "x.com".into(),
                index: 7,
            },
        };
        let s = f.to_string();
        assert!(s.contains("argon-current") && s.contains("x.com") && s.contains('7'));
    }
}
