//! Full chain validation.
//!
//! Implements the checks a real TLS stack performs and that the paper
//! verifies pinning apps do not subvert (§5.3.4): signature chaining, basic
//! constraints, path-length constraints, validity windows, hostname
//! matching, root-store anchoring, and leaf revocation.

use crate::cache::{self, CacheCounter, CacheStat};
use crate::cert::{Certificate, ReceivedDer};
use crate::error::ValidationError;
use crate::store::RootStore;
use crate::time::SimTime;
use pinning_resilience::{Deadline, DeadlineExceeded};
use std::collections::{HashMap, HashSet};
use std::hash::{Hash, Hasher};
use std::sync::{OnceLock, RwLock};

/// Work units charged per certificate for screening, expiry, and linkage
/// bookkeeping (cheap, non-cryptographic passes over the chain).
pub const COST_PER_CERT_OVERHEAD: u64 = 2;
/// Flat work units charged once per validation for setup.
pub const COST_CHAIN_SETUP: u64 = 2;
/// Work units charged before each signature verification — the dominant
/// cost, charged *before* the verify so an expired deadline abandons the
/// chain walk mid-way.
pub const COST_SIGNATURE_VERIFY: u64 = 40;
/// Work units charged for the root-store anchor lookup.
pub const COST_ANCHOR_LOOKUP: u64 = 4;
/// Work units charged for the hostname match.
pub const COST_HOSTNAME_CHECK: u64 = 2;
/// Work units charged for the leaf revocation check.
pub const COST_REVOCATION_CHECK: u64 = 1;
/// Work units charged for probing the validation memo.
pub const COST_MEMO_PROBE: u64 = 2;

/// A set of revoked certificate serial numbers.
///
/// The paper notes revocation only applies to leaf certificates (§5.3.1);
/// we model it the same way — only the leaf is checked.
#[derive(Debug, Clone, Default)]
pub struct RevocationList {
    revoked: HashSet<u64>,
}

impl RevocationList {
    /// An empty CRL.
    pub fn empty() -> Self {
        Self::default()
    }

    /// Marks a serial revoked.
    pub fn revoke(&mut self, serial: u64) {
        self.revoked.insert(serial);
    }

    /// Whether `serial` is revoked.
    pub fn is_revoked(&self, serial: u64) -> bool {
        self.revoked.contains(&serial)
    }

    /// Number of revoked serials.
    pub fn len(&self) -> usize {
        self.revoked.len()
    }

    /// Whether the list is empty.
    pub fn is_empty(&self) -> bool {
        self.revoked.is_empty()
    }
}

/// Knobs for validation.
///
/// Real apps occasionally disable individual checks (that is exactly the
/// kind of flaw Stone et al. look for); the options model that so the
/// simulation can plant — and the analysis can hunt for — such apps.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ValidationOptions {
    /// Enforce hostname matching on the leaf.
    pub check_hostname: bool,
    /// Enforce validity windows.
    pub check_expiry: bool,
    /// Enforce leaf revocation.
    pub check_revocation: bool,
}

impl Default for ValidationOptions {
    fn default() -> Self {
        ValidationOptions {
            check_hostname: true,
            check_expiry: true,
            check_revocation: true,
        }
    }
}

/// Validates `chain` (leaf-first) for `hostname` at time `now` against the
/// trusted roots in `store`.
///
/// The chain may or may not include the root itself. Validation succeeds iff:
///
/// 1. the chain is non-empty and each certificate was signed by the next
///    (verified cryptographically, not just by name);
/// 2. every issuing certificate has the CA bit and respects its path-length
///    constraint;
/// 3. every certificate is inside its validity window (if enabled);
/// 4. the top of the chain either *is* a trusted root or was signed by one;
/// 5. the leaf matches `hostname` (if enabled) and is not revoked (if
///    enabled).
pub fn validate_chain(
    chain: &[Certificate],
    store: &RootStore,
    hostname: &str,
    now: SimTime,
    crl: &RevocationList,
    options: &ValidationOptions,
) -> Result<(), ValidationError> {
    validate_chain_within(
        chain,
        store,
        hostname,
        now,
        crl,
        options,
        &Deadline::unlimited(),
    )
    .expect("unlimited deadline cannot expire")
}

/// [`validate_chain`] under a work-budget deadline.
///
/// This is the single implementation of chain validation — the plain
/// entry point delegates here with [`Deadline::unlimited`], so a verdict
/// produced under a finite deadline is byte-identical to the offline
/// library's for the same input. Work is charged in fixed units (the
/// `COST_*` constants) *before* it is performed; the moment a charge
/// overruns the budget the walk is abandoned and `Err(DeadlineExceeded)`
/// is returned — never a partial verdict.
#[allow(clippy::too_many_arguments)]
pub fn validate_chain_within(
    chain: &[Certificate],
    store: &RootStore,
    hostname: &str,
    now: SimTime,
    crl: &RevocationList,
    options: &ValidationOptions,
    deadline: &Deadline,
) -> Result<Result<(), ValidationError>, DeadlineExceeded> {
    match validate_chain_impl(chain, store, hostname, now, crl, options, deadline) {
        Ok(()) => Ok(Ok(())),
        Err(Verdict::Invalid(e)) => Ok(Err(e)),
        Err(Verdict::TimedOut) => Err(DeadlineExceeded),
    }
}

/// Internal outcome separating "the chain is bad" from "we ran out of
/// budget before knowing", so `?` can be used on both paths.
enum Verdict {
    Invalid(ValidationError),
    TimedOut,
}

impl From<ValidationError> for Verdict {
    fn from(e: ValidationError) -> Self {
        Verdict::Invalid(e)
    }
}

impl From<DeadlineExceeded> for Verdict {
    fn from(_: DeadlineExceeded) -> Self {
        Verdict::TimedOut
    }
}

fn validate_chain_impl(
    chain: &[Certificate],
    store: &RootStore,
    hostname: &str,
    now: SimTime,
    crl: &RevocationList,
    options: &ValidationOptions,
    deadline: &Deadline,
) -> Result<(), Verdict> {
    // The cheap linear passes (screening, expiry, linkage bookkeeping) are
    // charged up front as a function of chain length.
    deadline.charge(COST_CHAIN_SETUP + COST_PER_CERT_OVERHEAD * chain.len() as u64)?;
    let leaf = chain.first().ok_or(ValidationError::EmptyChain)?;

    // Screen structure before any cryptographic work: pathological chains
    // (cycles, absurd depth, giant SAN lists, stacked wildcards) are
    // rejected up front under the standard hostile-input budget. Nothing
    // but an empty chain may be judged before this screen:
    // `ReceivedChain` relies on every other verdict that is not
    // `Malformed` proving that the chain passed it.
    crate::limits::screen_chain(chain, &crate::limits::Budget::STANDARD)
        .map_err(ValidationError::Malformed)?;

    if options.check_expiry {
        for cert in chain {
            if now < cert.tbs.validity.not_before {
                return Err(ValidationError::NotYetValid {
                    subject: cert.tbs.subject.common_name.clone(),
                }
                .into());
            }
            if now > cert.tbs.validity.not_after {
                return Err(ValidationError::Expired {
                    subject: cert.tbs.subject.common_name.clone(),
                    not_after: cert.tbs.validity.not_after,
                    now,
                }
                .into());
            }
        }
    }

    // Walk leaf → top verifying linkage, signatures, CA bits, path lengths.
    for i in 0..chain.len().saturating_sub(1) {
        let child = &chain[i];
        let parent = &chain[i + 1];
        if child.tbs.issuer != parent.tbs.subject {
            return Err(ValidationError::BrokenLinkage {
                child: child.tbs.subject.common_name.clone(),
                parent: parent.tbs.subject.common_name.clone(),
            }
            .into());
        }
        if !parent.tbs.is_ca {
            return Err(ValidationError::NotACa {
                subject: parent.tbs.subject.common_name.clone(),
            }
            .into());
        }
        // Path length: a CA with path_len = n may have at most n CA certs
        // *below* it (not counting the leaf).
        if let Some(max) = parent.tbs.path_len {
            let cas_below = chain[..=i].iter().filter(|c| c.tbs.is_ca).count() as u64;
            if cas_below > max {
                return Err(ValidationError::PathLenExceeded {
                    subject: parent.tbs.subject.common_name.clone(),
                }
                .into());
            }
        }
        // Charge the signature verify *before* doing it: an expired
        // deadline abandons the walk here, mid-chain.
        deadline.charge(COST_SIGNATURE_VERIFY)?;
        if !parent
            .tbs
            .public_key
            .verify(&child.tbs.to_bytes(), &child.signature)
        {
            return Err(ValidationError::BadSignature {
                subject: child.tbs.subject.common_name.clone(),
            }
            .into());
        }
    }

    // Anchor the top of the chain in the root store.
    deadline.charge(COST_ANCHOR_LOOKUP)?;
    let top = chain.last().expect("non-empty checked above");
    let anchored = if top.is_self_signed() {
        // Chain includes its root: the root itself must be trusted (and its
        // self-signature must verify). A top identical to a stored root
        // whose self-signature the store already verified needs neither
        // check again; the verify is charged either way, so the deadline
        // accounting does not depend on which path ran.
        deadline.charge(COST_SIGNATURE_VERIFY)?;
        store.is_verified_anchor(top)
            || (store.contains(top)
                && top
                    .tbs
                    .public_key
                    .verify(&top.tbs.to_bytes(), &top.signature))
    } else {
        // Chain excludes the root: a trusted root must have signed the top.
        store.issuer_of(top).is_some()
    };
    if !anchored {
        return Err(ValidationError::UnknownRoot {
            top_subject: top.tbs.subject.common_name.clone(),
        }
        .into());
    }

    deadline.charge(COST_HOSTNAME_CHECK)?;
    if options.check_hostname && !leaf.matches_hostname(hostname) {
        return Err(ValidationError::HostnameMismatch {
            hostname: hostname.to_string(),
        }
        .into());
    }

    deadline.charge(COST_REVOCATION_CHECK)?;
    if options.check_revocation && crl.is_revoked(leaf.tbs.serial) {
        return Err(ValidationError::Revoked {
            serial: leaf.tbs.serial,
        }
        .into());
    }

    Ok(())
}

/// Every input [`validate_chain`] reads, compared field by field.
///
/// Each dimension is either stored in full (certificate fingerprints cover
/// `tbs` *and* signature bytes) or reduced to the only part validation can
/// observe: the root store enters through its content id, the CRL through
/// "is the leaf's serial revoked".
#[derive(Debug, PartialEq, Eq)]
struct ValidationKey {
    store: u64,
    chain: Box<[[u8; 32]]>,
    hostname: Box<str>,
    now: u64,
    /// `check_hostname`, `check_expiry`, `check_revocation`, leaf revoked.
    flags: [bool; 4],
}

impl Hash for ValidationKey {
    /// Hashes each fingerprint's first eight bytes, which a SHA-256 spreads
    /// as well as all 32, so a probe hashes less than half the key's bytes;
    /// `eq` still compares every byte. The flags are left out: keys that
    /// differ only there are rare and still compare unequal.
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.store ^ self.now);
        for fp in self.chain.iter() {
            state.write_u64(u64::from_le_bytes(fp[..8].try_into().expect("8 bytes")));
        }
        state.write(self.hostname.as_bytes());
    }
}

impl ValidationKey {
    fn new(
        chain: &[Certificate],
        store: &RootStore,
        hostname: &str,
        now: SimTime,
        crl: &RevocationList,
        options: &ValidationOptions,
    ) -> Self {
        let leaf_revoked = chain
            .first()
            .is_some_and(|leaf| crl.is_revoked(leaf.tbs.serial));
        let fingerprints = chain.iter().map(Certificate::fingerprint_sha256).collect();
        Self::with_fingerprints(fingerprints, store, hostname, now, leaf_revoked, options)
    }

    fn with_fingerprints(
        chain: Box<[[u8; 32]]>,
        store: &RootStore,
        hostname: &str,
        now: SimTime,
        leaf_revoked: bool,
        options: &ValidationOptions,
    ) -> Self {
        ValidationKey {
            store: store.content_id(),
            chain,
            hostname: hostname.into(),
            now: now.0,
            flags: [
                options.check_hostname,
                options.check_expiry,
                options.check_revocation,
                leaf_revoked,
            ],
        }
    }
}

/// A chain-validation memo: verdicts keyed by every input they were
/// computed from, plus this memo's own hit and miss counts, which also add
/// into the process total [`cache::CHAIN_VALIDATION`].
///
/// Whoever runs the validations owns the memo; running without one means
/// passing `None` to [`validate_with`], with identical verdicts. A miss is
/// counted once per stored verdict (a caller that finishes a validation
/// another thread stored meanwhile counts a hit), so the counts do not
/// depend on thread scheduling. A timed-out validation counts a miss.
#[derive(Debug)]
pub struct ValidationMemo {
    verdicts: RwLock<HashMap<ValidationKey, Result<(), ValidationError>>>,
    counts: CacheCounter,
}

impl Default for ValidationMemo {
    fn default() -> Self {
        ValidationMemo {
            verdicts: RwLock::default(),
            counts: CacheCounter::new("chain-validation"),
        }
    }
}

impl ValidationMemo {
    /// The memo behind [`validate_chain_cached`] and
    /// [`clear_validation_cache`], and behind environments built without a
    /// memo of their own.
    pub fn process_default() -> &'static ValidationMemo {
        static MEMO: OnceLock<ValidationMemo> = OnceLock::new();
        MEMO.get_or_init(ValidationMemo::default)
    }

    fn count(&self, hit: bool) {
        let bump = if hit {
            CacheCounter::hit
        } else {
            CacheCounter::miss
        };
        bump(&self.counts);
        bump(&cache::CHAIN_VALIDATION);
    }

    /// Memoized [`validate_chain`]: identical verdicts, but a repeat of the
    /// same inputs skips the signature walk. Every simulated handshake
    /// validates a chain, and the same chains recur across thousands of apps.
    pub fn validate(
        &self,
        chain: &[Certificate],
        store: &RootStore,
        hostname: &str,
        now: SimTime,
        crl: &RevocationList,
        options: &ValidationOptions,
    ) -> Result<(), ValidationError> {
        validate_with(Some(self), chain, store, hostname, now, crl, options)
    }

    /// [`ValidationMemo::validate`] under a work-budget deadline,
    /// reporting whether the verdict came from the memo.
    ///
    /// Memo hits cost only [`COST_MEMO_PROBE`]; misses pay the probe plus
    /// the full [`validate_chain_within`] walk. A verdict that timed out
    /// is **never memoized** — the memo holds only complete verdicts, so
    /// a request with a tight deadline can never poison the memo for
    /// requests with room to finish.
    #[allow(clippy::too_many_arguments)]
    pub fn validate_within(
        &self,
        chain: &[Certificate],
        store: &RootStore,
        hostname: &str,
        now: SimTime,
        crl: &RevocationList,
        options: &ValidationOptions,
        deadline: &Deadline,
    ) -> Result<CachedVerdict, DeadlineExceeded> {
        deadline.charge(COST_MEMO_PROBE)?;
        let key = ValidationKey::new(chain, store, hostname, now, crl, options);
        self.validate_keyed_within(key, chain, store, hostname, now, crl, options, deadline)
    }

    /// [`ValidationMemo::validate_within`] under a key already built, after
    /// the probe is charged.
    #[allow(clippy::too_many_arguments)]
    fn validate_keyed_within(
        &self,
        key: ValidationKey,
        chain: &[Certificate],
        store: &RootStore,
        hostname: &str,
        now: SimTime,
        crl: &RevocationList,
        options: &ValidationOptions,
        deadline: &Deadline,
    ) -> Result<CachedVerdict, DeadlineExceeded> {
        if let Some(verdict) = self.verdicts.read().expect("memo poisoned").get(&key) {
            self.count(true);
            return Ok(CachedVerdict {
                verdict: verdict.clone(),
                hit: true,
            });
        }
        let verdict = validate_chain_within(chain, store, hostname, now, crl, options, deadline)
            .inspect_err(|_| self.count(false))?;
        // Another thread may have stored the same verdict meanwhile.
        let mut verdicts = self.verdicts.write().expect("memo poisoned");
        let hit = verdicts.insert(key, verdict.clone()).is_some();
        self.count(hit);
        Ok(CachedVerdict { verdict, hit })
    }

    /// Probes the memo without computing or counting anything:
    /// `Some(verdict)` iff this exact validation has already completed
    /// (`pinning-serve`'s brownout path, after decoding).
    pub fn verdict(
        &self,
        chain: &[Certificate],
        store: &RootStore,
        hostname: &str,
        now: SimTime,
        crl: &RevocationList,
        options: &ValidationOptions,
    ) -> Option<Result<(), ValidationError>> {
        let key = ValidationKey::new(chain, store, hostname, now, crl, options);
        let verdicts = self.verdicts.read().expect("memo poisoned");
        verdicts.get(&key).cloned()
    }

    /// Empties the memo (its counts keep running).
    pub fn clear(&self) {
        self.verdicts.write().expect("memo poisoned").clear();
    }

    /// This memo's hits and misses since it was created.
    pub fn stats(&self) -> CacheStat {
        self.counts.snapshot()
    }
}

/// A verdict from [`ValidationMemo::validate_within`], with whether the
/// memo already held it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CachedVerdict {
    /// The validation verdict, identical to [`validate_chain`]'s.
    pub verdict: Result<(), ValidationError>,
    /// `true` iff the memo held this verdict by the time the call had it
    /// (possibly stored by another thread meanwhile).
    pub hit: bool,
}

/// Validates through `memo` if the caller has one, else with plain
/// [`validate_chain_within`] (identical verdicts, each one a miss).
#[allow(clippy::too_many_arguments)]
pub fn validate_with_within(
    memo: Option<&ValidationMemo>,
    chain: &[Certificate],
    store: &RootStore,
    hostname: &str,
    now: SimTime,
    crl: &RevocationList,
    options: &ValidationOptions,
    deadline: &Deadline,
) -> Result<CachedVerdict, DeadlineExceeded> {
    match memo {
        Some(memo) => memo.validate_within(chain, store, hostname, now, crl, options, deadline),
        None => validate_chain_within(chain, store, hostname, now, crl, options, deadline).map(
            |verdict| CachedVerdict {
                verdict,
                hit: false,
            },
        ),
    }
}

/// One validation asked for a chain still in its received encodings
/// (leaf first): every input [`validate_chain`] reads, with the memo key
/// built from the SHA-256 of each received slice instead of from decoded
/// certificates.
///
/// A canonical encoding's SHA-256 is its certificate's fingerprint
/// (`pki::encode`), so for a canonical chain this is the key
/// [`ValidationMemo::validate_within`] would build after decoding, and a
/// memo can answer before anything is decoded. Any other slice's digest
/// names no certificate: the probe misses, and the decoded chain is keyed
/// by its own fingerprints.
///
/// The key is left unbuilt, so the chain is always decoded first, when
/// the leaf-revoked bit needs the decoded leaf (a non-empty CRL) or a
/// slice is over [`crate::limits::Budget::STANDARD`]'s input size, which
/// decoding would reject whatever the memo holds.
#[derive(Debug)]
pub struct ReceivedChain<'a> {
    key: Option<ValidationKey>,
    store: &'a RootStore,
    hostname: &'a str,
    now: SimTime,
    crl: &'a RevocationList,
    options: &'a ValidationOptions,
}

impl<'a> ReceivedChain<'a> {
    /// The validation of `received` for `hostname` at `now`.
    pub fn new(
        received: &[ReceivedDer<'_>],
        store: &'a RootStore,
        hostname: &'a str,
        now: SimTime,
        crl: &'a RevocationList,
        options: &'a ValidationOptions,
    ) -> Self {
        let max_bytes = crate::limits::Budget::STANDARD.max_input_bytes;
        let probe = crl.is_empty() && received.iter().all(|r| r.bytes().len() <= max_bytes);
        let key = probe.then(|| {
            let digests = received.iter().map(|r| *r.sha256()).collect();
            ValidationKey::with_fingerprints(digests, store, hostname, now, false, options)
        });
        ReceivedChain {
            key,
            store,
            hostname,
            now,
            crl,
            options,
        }
    }

    /// The verdict `memo` holds for the received chain, if decoding would
    /// have accepted every certificate of it; counts and charges nothing
    /// (`pinning-serve`'s brownout path). `None` means: decode, then look
    /// again with [`ValidationMemo::verdict`].
    ///
    /// A memo may hold verdicts for chains never decoded, validated from
    /// `Certificate` values that decoding would reject (a giant SAN list,
    /// stacked wildcards). Validation screens every chain under
    /// [`crate::limits::Budget::STANDARD`] before judging it otherwise,
    /// and that screen's name and wildcard limits cover decoding's. So
    /// any verdict but `Malformed` proves every certificate within them,
    /// and a canonical encoding within them and within the input size
    /// decodes. A `Malformed` verdict is left to the decoder.
    pub fn memo_verdict(&self, memo: &ValidationMemo) -> Option<Result<(), ValidationError>> {
        let key = self.key.as_ref()?;
        let verdicts = memo.verdicts.read().expect("memo poisoned");
        match verdicts.get(key)? {
            Err(ValidationError::Malformed(_)) => None,
            verdict => Some(verdict.clone()),
        }
    }

    /// [`ReceivedChain::memo_verdict`] as a counted memo hit: charges
    /// [`COST_MEMO_PROBE`] and counts one hit, as
    /// [`ValidationMemo::validate_within`] does on a hit. `Ok(None)`, with
    /// nothing charged or counted, means: decode, then
    /// [`ReceivedChain::validate_within`].
    pub fn answer_within(
        &self,
        memo: &ValidationMemo,
        deadline: &Deadline,
    ) -> Result<Option<Result<(), ValidationError>>, DeadlineExceeded> {
        let Some(verdict) = self.memo_verdict(memo) else {
            return Ok(None);
        };
        deadline.charge(COST_MEMO_PROBE)?;
        memo.count(true);
        Ok(Some(verdict))
    }

    /// The key of `chain`, decoded from the received slices: the probe's
    /// key with each digest replaced by the certificate's fingerprint,
    /// which is the same digest (seeded by [`ReceivedDer::decode`])
    /// wherever the certificate kept its received bytes.
    fn decoded_key(&mut self, chain: &[Certificate]) -> ValidationKey {
        match self.key.take() {
            Some(mut key) if key.chain.len() == chain.len() => {
                for (digest, cert) in key.chain.iter_mut().zip(chain) {
                    *digest = cert.fingerprint_sha256();
                }
                key
            }
            _ => ValidationKey::new(
                chain,
                self.store,
                self.hostname,
                self.now,
                self.crl,
                self.options,
            ),
        }
    }

    /// [`validate_with_within`] for `chain`, decoded from the received
    /// slices, reusing the probe's key.
    pub fn validate_within(
        mut self,
        memo: Option<&ValidationMemo>,
        chain: &[Certificate],
        deadline: &Deadline,
    ) -> Result<CachedVerdict, DeadlineExceeded> {
        let (store, hostname, now, crl, options) =
            (self.store, self.hostname, self.now, self.crl, self.options);
        let Some(memo) = memo else {
            return validate_with_within(None, chain, store, hostname, now, crl, options, deadline);
        };
        deadline.charge(COST_MEMO_PROBE)?;
        let key = self.decoded_key(chain);
        memo.validate_keyed_within(key, chain, store, hostname, now, crl, options, deadline)
    }
}

/// [`validate_with_within`] without a deadline.
pub fn validate_with(
    memo: Option<&ValidationMemo>,
    chain: &[Certificate],
    store: &RootStore,
    hostname: &str,
    now: SimTime,
    crl: &RevocationList,
    options: &ValidationOptions,
) -> Result<(), ValidationError> {
    let unlimited = Deadline::unlimited();
    validate_with_within(memo, chain, store, hostname, now, crl, options, &unlimited)
        .expect("unlimited deadline cannot expire")
        .verdict
}

/// [`ValidationMemo::validate`] on the process-default memo.
pub fn validate_chain_cached(
    chain: &[Certificate],
    store: &RootStore,
    hostname: &str,
    now: SimTime,
    crl: &RevocationList,
    options: &ValidationOptions,
) -> Result<(), ValidationError> {
    ValidationMemo::process_default().validate(chain, store, hostname, now, crl, options)
}

/// Empties the process-default memo (benchmarks use this so runs on it
/// start cold and measure real, reproducible hit patterns).
pub fn clear_validation_cache() {
    ValidationMemo::process_default().clear();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::authority::CertificateAuthority;
    use crate::name::DistinguishedName;
    use crate::time::{Validity, YEAR};
    use pinning_crypto::sig::KeyPair;
    use pinning_crypto::SplitMix64;

    struct Fixture {
        store: RootStore,
        chain: Vec<Certificate>,
        root_key: KeyPair,
    }

    fn fixture() -> Fixture {
        let mut rng = SplitMix64::new(0x7a11);
        let mut root = CertificateAuthority::new_root(
            DistinguishedName::new("Sim Root", "Sim", "US"),
            &mut rng,
            SimTime(0),
        );
        let mut inter = root.issue_intermediate(
            DistinguishedName::new("Sim Inter", "Sim", "US"),
            &mut rng,
            Validity::starting(SimTime(0), 10 * YEAR),
            Some(1),
        );
        let key = KeyPair::generate(&mut rng);
        let leaf = inter.issue_leaf(
            &["pay.shop.com".to_string(), "*.api.shop.com".to_string()],
            "Shop",
            &key,
            Validity::starting(SimTime(0), YEAR),
        );
        let mut store = RootStore::new("test");
        store.add(root.cert.clone());
        Fixture {
            store,
            chain: vec![leaf, inter.cert.clone(), root.cert.clone()],
            root_key: root.keypair().clone(),
        }
    }

    fn ok(
        f: &Fixture,
        chain: &[Certificate],
        host: &str,
        now: SimTime,
    ) -> Result<(), ValidationError> {
        validate_chain(
            chain,
            &f.store,
            host,
            now,
            &RevocationList::empty(),
            &ValidationOptions::default(),
        )
    }

    #[test]
    fn valid_chain_with_root_included() {
        let f = fixture();
        ok(&f, &f.chain, "pay.shop.com", SimTime(100)).unwrap();
    }

    #[test]
    fn cyclic_chain_rejected_before_crypto() {
        let f = fixture();
        // leaf → inter → inter → root: the repeated certificate (a loop in
        // disguise) must be caught by screening, not by signature walking.
        let chain = vec![
            f.chain[0].clone(),
            f.chain[1].clone(),
            f.chain[1].clone(),
            f.chain[2].clone(),
        ];
        assert_eq!(
            ok(&f, &chain, "pay.shop.com", SimTime(100)),
            Err(ValidationError::Malformed(
                crate::limits::ChainDefect::RepeatedCertificate { position: 2 }
            ))
        );
    }

    #[test]
    fn overlong_chain_rejected_before_crypto() {
        let f = fixture();
        let budget = crate::limits::Budget::STANDARD;
        let mut chain = Vec::new();
        for i in 0..budget.max_chain_len + 1 {
            let mut c = f.chain[0].clone();
            c.tbs.serial = c.tbs.serial.wrapping_add(i as u64);
            c.invalidate_derived();
            chain.push(c);
        }
        assert_eq!(
            ok(&f, &chain, "pay.shop.com", SimTime(100)),
            Err(ValidationError::Malformed(
                crate::limits::ChainDefect::TooLong { len: chain.len() }
            ))
        );
    }

    #[test]
    fn valid_chain_without_root() {
        let f = fixture();
        ok(&f, &f.chain[..2], "pay.shop.com", SimTime(100)).unwrap();
    }

    #[test]
    fn wildcard_san_accepted() {
        let f = fixture();
        ok(&f, &f.chain, "v1.api.shop.com", SimTime(100)).unwrap();
    }

    #[test]
    fn empty_chain_rejected() {
        let f = fixture();
        assert_eq!(
            ok(&f, &[], "pay.shop.com", SimTime(1)),
            Err(ValidationError::EmptyChain)
        );
    }

    #[test]
    fn expired_leaf_rejected() {
        let f = fixture();
        let late = SimTime(2 * YEAR);
        assert!(matches!(
            ok(&f, &f.chain, "pay.shop.com", late),
            Err(ValidationError::Expired { .. })
        ));
    }

    #[test]
    fn expiry_check_can_be_disabled() {
        let f = fixture();
        let opts = ValidationOptions {
            check_expiry: false,
            ..Default::default()
        };
        validate_chain(
            &f.chain,
            &f.store,
            "pay.shop.com",
            SimTime(2 * YEAR),
            &RevocationList::empty(),
            &opts,
        )
        .unwrap();
    }

    #[test]
    fn hostname_mismatch_rejected() {
        let f = fixture();
        assert_eq!(
            ok(&f, &f.chain, "evil.com", SimTime(100)),
            Err(ValidationError::HostnameMismatch {
                hostname: "evil.com".into()
            })
        );
    }

    #[test]
    fn unknown_root_rejected() {
        let f = fixture();
        let empty_store = RootStore::new("empty");
        let err = validate_chain(
            &f.chain,
            &empty_store,
            "pay.shop.com",
            SimTime(100),
            &RevocationList::empty(),
            &ValidationOptions::default(),
        );
        assert!(matches!(err, Err(ValidationError::UnknownRoot { .. })));
    }

    #[test]
    fn tampered_leaf_signature_rejected() {
        let f = fixture();
        let mut chain = f.chain.clone();
        chain[0].tbs.san.push("extra.evil.com".to_string());
        assert!(matches!(
            ok(&f, &chain, "pay.shop.com", SimTime(100)),
            Err(ValidationError::BadSignature { .. })
        ));
    }

    #[test]
    fn broken_linkage_rejected() {
        let f = fixture();
        let chain = vec![f.chain[0].clone(), f.chain[2].clone()]; // skip intermediate
        assert!(matches!(
            ok(&f, &chain, "pay.shop.com", SimTime(100)),
            Err(ValidationError::BrokenLinkage { .. })
        ));
    }

    #[test]
    fn non_ca_issuer_rejected() {
        let f = fixture();
        let mut rng = SplitMix64::new(0xbad);
        // Build a "chain" where a leaf pretends to issue another leaf.
        let mut root2 = CertificateAuthority::new_root(
            DistinguishedName::new("R2", "Sim", "US"),
            &mut rng,
            SimTime(0),
        );
        let k1 = KeyPair::generate(&mut rng);
        let fake_issuer = root2.issue_leaf(
            &["issuer.com".to_string()],
            "I",
            &k1,
            Validity::starting(SimTime(0), YEAR),
        );
        let mut child = f.chain[0].clone();
        child.tbs.issuer = fake_issuer.tbs.subject.clone();
        let chain = vec![child, fake_issuer];
        assert!(matches!(
            ok(&f, &chain, "pay.shop.com", SimTime(100)),
            Err(ValidationError::NotACa { .. })
        ));
    }

    #[test]
    fn path_len_enforced() {
        let mut rng = SplitMix64::new(0x9d);
        let mut root = CertificateAuthority::new_root(
            DistinguishedName::new("R", "Sim", "US"),
            &mut rng,
            SimTime(0),
        );
        // Root allows at most 0 CAs below it.
        let mut constrained = root.issue_intermediate(
            DistinguishedName::new("I0", "Sim", "US"),
            &mut rng,
            Validity::starting(SimTime(0), 10 * YEAR),
            None,
        );
        // Give the *intermediate* a path_len of 0, then hang another CA off it.
        let mut deep = constrained.issue_intermediate(
            DistinguishedName::new("I1", "Sim", "US"),
            &mut rng,
            Validity::starting(SimTime(0), 10 * YEAR),
            None,
        );
        let mut i0_cert = constrained.cert.clone();
        i0_cert.tbs.path_len = Some(0);
        // Re-sign I0 with the new constraint so the signature stays valid.
        i0_cert.signature = root.keypair().sign(&i0_cert.tbs.to_bytes());
        // I1 chains under the *unconstrained* I0 cert, so re-issue it under
        // the constrained one.
        let mut i1_cert = deep.cert.clone();
        i1_cert.tbs.issuer = i0_cert.tbs.subject.clone();
        i1_cert.signature = constrained.keypair().sign(&i1_cert.tbs.to_bytes());

        let key = KeyPair::generate(&mut rng);
        let leaf = deep.issue_leaf(
            &["d.com".to_string()],
            "D",
            &key,
            Validity::starting(SimTime(0), YEAR),
        );
        let mut leaf = leaf;
        leaf.tbs.issuer = i1_cert.tbs.subject.clone();
        leaf.signature = deep.keypair().sign(&leaf.tbs.to_bytes());

        let mut store = RootStore::new("t");
        store.add(root.cert.clone());
        let chain = vec![leaf, i1_cert, i0_cert, root.cert.clone()];
        let err = validate_chain(
            &chain,
            &store,
            "d.com",
            SimTime(100),
            &RevocationList::empty(),
            &ValidationOptions::default(),
        );
        assert!(
            matches!(err, Err(ValidationError::PathLenExceeded { .. })),
            "{err:?}"
        );
    }

    #[test]
    fn revoked_leaf_rejected() {
        let f = fixture();
        let mut crl = RevocationList::empty();
        crl.revoke(f.chain[0].tbs.serial);
        let err = validate_chain(
            &f.chain,
            &f.store,
            "pay.shop.com",
            SimTime(100),
            &crl,
            &ValidationOptions::default(),
        );
        assert_eq!(
            err,
            Err(ValidationError::Revoked {
                serial: f.chain[0].tbs.serial
            })
        );
    }

    /// One full set of validation inputs.
    struct Case<'a> {
        label: &'static str,
        chain: Vec<Certificate>,
        store: &'a RootStore,
        host: &'static str,
        now: SimTime,
        crl: RevocationList,
        options: ValidationOptions,
    }

    #[test]
    fn cached_validation_matches_uncached_across_scenarios() {
        let f = fixture();
        let memo = ValidationMemo::default();

        // Every case below differs from `base` in exactly one key field.
        let base = || Case {
            label: "base",
            chain: f.chain.clone(),
            store: &f.store,
            host: "pay.shop.com",
            now: SimTime(100),
            crl: RevocationList::empty(),
            options: ValidationOptions::default(),
        };
        let mut bigger_store = f.store.clone();
        bigger_store.add(
            CertificateAuthority::new_root(
                DistinguishedName::new("Other Root", "Sim", "US"),
                &mut SplitMix64::new(0x07e5),
                SimTime(0),
            )
            .cert,
        );
        let mut resigned_leaf = f.chain.clone();
        resigned_leaf[0].signature.0[0] ^= 1;
        resigned_leaf[0].invalidate_derived();
        let mut revoked = RevocationList::empty();
        revoked.revoke(f.chain[0].tbs.serial);
        let cases = vec![
            base(),
            Case {
                label: "hostname",
                host: "v1.api.shop.com",
                ..base()
            },
            Case {
                label: "mismatched hostname",
                host: "evil.com",
                ..base()
            },
            Case {
                label: "signature bytes only",
                chain: resigned_leaf,
                ..base()
            },
            Case {
                label: "one more root in the store",
                store: &bigger_store,
                ..base()
            },
            Case {
                label: "revoked leaf",
                crl: revoked,
                ..base()
            },
            Case {
                label: "check_hostname off",
                options: ValidationOptions {
                    check_hostname: false,
                    ..Default::default()
                },
                ..base()
            },
            Case {
                label: "check_expiry off",
                options: ValidationOptions {
                    check_expiry: false,
                    ..Default::default()
                },
                ..base()
            },
            Case {
                label: "check_revocation off",
                options: ValidationOptions {
                    check_revocation: false,
                    ..Default::default()
                },
                ..base()
            },
            Case {
                label: "chain prefix",
                chain: f.chain[..2].to_vec(),
                ..base()
            },
            Case {
                label: "time",
                now: SimTime(2 * YEAR),
                ..base()
            },
            Case {
                label: "empty chain",
                chain: Vec::new(),
                ..base()
            },
        ];

        let keys: HashSet<ValidationKey> = cases
            .iter()
            .map(|c| ValidationKey::new(&c.chain, c.store, c.host, c.now, &c.crl, &c.options))
            .collect();
        assert_eq!(keys.len(), cases.len(), "two cases share a memo key");

        for c in &cases {
            let plain = validate_chain(&c.chain, c.store, c.host, c.now, &c.crl, &c.options);
            // First cached call computes, second must serve the memo —
            // both byte-identical to the plain validator.
            for hit in [false, true] {
                let cached = memo
                    .validate_within(
                        &c.chain,
                        c.store,
                        c.host,
                        c.now,
                        &c.crl,
                        &c.options,
                        &Deadline::unlimited(),
                    )
                    .expect("unlimited deadline");
                assert_eq!(
                    cached,
                    CachedVerdict {
                        verdict: plain.clone(),
                        hit
                    },
                    "{}",
                    c.label
                );
            }
        }
        // Each case still finds its own verdict once all are memoized.
        for c in &cases {
            let plain = validate_chain(&c.chain, c.store, c.host, c.now, &c.crl, &c.options);
            assert_eq!(
                memo.verdict(&c.chain, c.store, c.host, c.now, &c.crl, &c.options),
                Some(plain),
                "{}",
                c.label
            );
        }
    }

    /// `f.chain` with its root replaced by `top`.
    fn chain_topped_by(f: &Fixture, top: Certificate) -> Vec<Certificate> {
        vec![f.chain[0].clone(), f.chain[1].clone(), top]
    }

    /// A copy of `cert` with `edit` applied and the derived cache dropped.
    fn edited(cert: &Certificate, edit: impl FnOnce(&mut Certificate)) -> Certificate {
        let mut c = cert.clone();
        edit(&mut c);
        c.invalidate_derived();
        c
    }

    #[test]
    fn byte_identical_stored_root_anchors() {
        let f = fixture();
        assert!(f.store.is_verified_anchor(&f.chain[2]));
        ok(&f, &f.chain, "pay.shop.com", SimTime(100)).unwrap();
    }

    #[test]
    fn tampered_self_signature_on_trusted_subject_and_key_is_unknown_root() {
        let f = fixture();
        let forged = edited(&f.chain[2], |c| c.signature.0[7] ^= 0x40);
        assert!(f.store.contains(&forged), "same subject and SPKI");
        assert!(!f.store.is_verified_anchor(&forged));
        assert!(matches!(
            ok(
                &f,
                &chain_topped_by(&f, forged),
                "pay.shop.com",
                SimTime(100)
            ),
            Err(ValidationError::UnknownRoot { .. })
        ));
    }

    #[test]
    fn reissued_root_anchors_through_the_slow_path() {
        let f = fixture();
        let reissued = edited(&f.chain[2], |c| {
            c.tbs.validity = Validity::starting(SimTime(50), 30 * YEAR);
            c.signature = f.root_key.sign(&c.tbs.to_bytes());
        });
        assert!(!f.store.is_verified_anchor(&reissued));
        let chain = chain_topped_by(&f, reissued);
        ok(&f, &chain, "pay.shop.com", SimTime(100)).unwrap();
        // Both anchor paths charge the same work.
        let spent = |chain: &[Certificate]| {
            let deadline = Deadline::with_budget(10_000);
            validate_chain_within(
                chain,
                &f.store,
                "pay.shop.com",
                SimTime(100),
                &RevocationList::empty(),
                &ValidationOptions::default(),
                &deadline,
            )
            .expect("generous deadline")
            .unwrap();
            deadline.spent()
        };
        assert_eq!(spent(&chain), spent(&f.chain));
    }

    #[test]
    fn root_added_with_bad_self_signature_never_takes_the_fast_path() {
        let f = fixture();
        let bad_root = edited(&f.chain[2], |c| c.signature.0[0] ^= 1);
        let mut store = RootStore::new("bad");
        assert!(store.add(bad_root.clone()));
        assert!(!store.is_verified_anchor(&bad_root));
        let check = |chain: &[Certificate]| {
            validate_chain(
                chain,
                &store,
                "pay.shop.com",
                SimTime(100),
                &RevocationList::empty(),
                &ValidationOptions::default(),
            )
        };
        assert!(matches!(
            check(&chain_topped_by(&f, bad_root)),
            Err(ValidationError::UnknownRoot { .. })
        ));
        // Without the root in the chain, only the root's key matters.
        check(&f.chain[..2]).unwrap();
    }

    #[test]
    fn removed_and_readded_roots_anchor_by_their_current_content() {
        let f = fixture();
        let mut store = f.store.clone();
        let subject = f.chain[2].tbs.subject.clone();
        let check = |store: &RootStore| {
            validate_chain(
                &f.chain,
                store,
                "pay.shop.com",
                SimTime(100),
                &RevocationList::empty(),
                &ValidationOptions::default(),
            )
        };
        let root = store.remove(&subject).expect("present");
        assert!(!store.is_verified_anchor(&root));
        assert!(matches!(
            check(&store),
            Err(ValidationError::UnknownRoot { .. })
        ));
        assert!(store.add(root.clone()));
        assert!(store.is_verified_anchor(&root));
        check(&store).unwrap();
        // A stored copy with a bad self-signature is not a verified
        // anchor. The presented root still matches it by subject and SPKI
        // and verifies itself, so the slow path anchors it, as before.
        store.remove(&subject);
        assert!(store.add(edited(&root, |c| c.signature.0[0] ^= 1)));
        assert!(!store.is_verified_anchor(&root));
        check(&store).unwrap();
    }

    #[test]
    fn validation_memo_distinguishes_mutated_stores() {
        // The MITM scenario from `forged_chain_from_untrusted_ca_rejected`,
        // through the memo: installing a CA changes the store's content id,
        // so the cached rejection cannot leak into the post-install world.
        let f = fixture();
        let mut rng = SplitMix64::new(0xa78);
        let mut mitm = CertificateAuthority::new_root(
            DistinguishedName::new("mitmproxy", "mitmproxy", "US"),
            &mut rng,
            SimTime(0),
        );
        let key = KeyPair::generate(&mut rng);
        let forged = mitm.issue_leaf(
            &["pay.shop.com".to_string()],
            "Shop",
            &key,
            Validity::starting(SimTime(0), YEAR),
        );
        let chain = vec![forged, mitm.cert.clone()];
        let check = |store: &RootStore| {
            validate_chain_cached(
                &chain,
                store,
                "pay.shop.com",
                SimTime(100),
                &RevocationList::empty(),
                &ValidationOptions::default(),
            )
        };
        let mut store = f.store.clone();
        assert!(matches!(
            check(&store),
            Err(ValidationError::UnknownRoot { .. })
        ));
        store.add(mitm.cert.clone());
        check(&store).unwrap();
        // CRL state is part of the key too: revoking the leaf must flip the
        // verdict even though chain/store/host/time are unchanged.
        let mut crl = RevocationList::empty();
        crl.revoke(chain[0].tbs.serial);
        let revoked = validate_chain_cached(
            &chain,
            &store,
            "pay.shop.com",
            SimTime(100),
            &crl,
            &ValidationOptions::default(),
        );
        assert!(matches!(revoked, Err(ValidationError::Revoked { .. })));
    }

    #[test]
    fn deadline_expiring_mid_walk_yields_timeout_not_partial_verdict() {
        let f = fixture();
        // Budget covers setup + the first signature verify but not the
        // second: the walk must abandon mid-chain with a structured
        // timeout, never a (partial) verdict.
        let budget = COST_CHAIN_SETUP
            + COST_PER_CERT_OVERHEAD * f.chain.len() as u64
            + COST_SIGNATURE_VERIFY;
        let deadline = Deadline::with_budget(budget + COST_SIGNATURE_VERIFY - 1);
        let out = validate_chain_within(
            &f.chain,
            &f.store,
            "pay.shop.com",
            SimTime(100),
            &RevocationList::empty(),
            &ValidationOptions::default(),
            &deadline,
        );
        assert_eq!(out, Err(DeadlineExceeded));
        // Spent saturates at the budget: the request "used up" its whole
        // deadline, which is what the serve layer accounts as latency.
        assert!(deadline.is_expired());
    }

    #[test]
    fn generous_deadline_matches_offline_verdict_and_charges_work() {
        let f = fixture();
        let deadline = Deadline::with_budget(10_000);
        let out = validate_chain_within(
            &f.chain,
            &f.store,
            "pay.shop.com",
            SimTime(100),
            &RevocationList::empty(),
            &ValidationOptions::default(),
            &deadline,
        )
        .expect("generous deadline");
        assert_eq!(
            out,
            validate_chain(
                &f.chain,
                &f.store,
                "pay.shop.com",
                SimTime(100),
                &RevocationList::empty(),
                &ValidationOptions::default(),
            )
        );
        // 3-cert chain: setup + overhead, 2 walk verifies + 1 self-signed
        // anchor verify, anchor lookup, hostname, revocation. The top is
        // the stored root itself, so the anchor takes the verified-anchor
        // path and is still charged its verify.
        let expected = COST_CHAIN_SETUP
            + 3 * COST_PER_CERT_OVERHEAD
            + 3 * COST_SIGNATURE_VERIFY
            + COST_ANCHOR_LOOKUP
            + COST_HOSTNAME_CHECK
            + COST_REVOCATION_CHECK;
        assert_eq!(deadline.spent(), expected);
    }

    #[test]
    fn timed_out_validation_is_never_memoized() {
        let f = fixture();
        let memo = ValidationMemo::default();
        let host = "v9.api.shop.com";
        let chain = &f.chain;
        let crl = RevocationList::empty();
        let opts = ValidationOptions::default();
        let tight = Deadline::with_budget(COST_MEMO_PROBE + COST_CHAIN_SETUP);
        let out = memo.validate_within(chain, &f.store, host, SimTime(100), &crl, &opts, &tight);
        assert_eq!(out, Err(DeadlineExceeded));
        // The timeout must not have poisoned the memo: no cached verdict.
        assert_eq!(
            memo.verdict(chain, &f.store, host, SimTime(100), &crl, &opts),
            None
        );
        // A request with room to finish computes and memoizes the verdict.
        let roomy = Deadline::with_budget(10_000);
        let out = memo
            .validate_within(chain, &f.store, host, SimTime(100), &crl, &opts, &roomy)
            .expect("roomy deadline");
        assert_eq!(
            out,
            CachedVerdict {
                verdict: Ok(()),
                hit: false
            }
        );
        assert_eq!(
            memo.verdict(chain, &f.store, host, SimTime(100), &crl, &opts),
            Some(Ok(()))
        );
        // The timeout counted a miss; the memo counts only its own traffic.
        assert_eq!((memo.stats().hits, memo.stats().misses), (0, 2));
    }

    #[test]
    fn each_memo_counts_only_its_own_validations() {
        let f = fixture();
        let (crl, opts) = (RevocationList::empty(), ValidationOptions::default());
        let (a, b) = (ValidationMemo::default(), ValidationMemo::default());
        let total_before = cache::CHAIN_VALIDATION.snapshot();
        for memo in [&a, &a, &b] {
            memo.validate(
                &f.chain,
                &f.store,
                "pay.shop.com",
                SimTime(100),
                &crl,
                &opts,
            )
            .unwrap();
        }
        assert_eq!((a.stats().hits, a.stats().misses), (1, 1));
        assert_eq!((b.stats().hits, b.stats().misses), (0, 1));
        // Both also add into the process total (other tests may add too).
        let total = cache::CHAIN_VALIDATION
            .snapshot()
            .delta_since(&total_before);
        assert!(total.hits >= 1 && total.misses >= 2);
        a.clear();
        assert_eq!(
            a.verdict(
                &f.chain,
                &f.store,
                "pay.shop.com",
                SimTime(100),
                &crl,
                &opts
            ),
            None
        );
    }

    #[test]
    fn racing_threads_count_one_miss_per_stored_verdict() {
        let f = fixture();
        let (crl, opts) = (RevocationList::empty(), ValidationOptions::default());
        let hosts = ["pay.shop.com", "v1.api.shop.com", "evil.com"];
        let memo = ValidationMemo::default();
        let start = std::sync::Barrier::new(4);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    start.wait();
                    for host in hosts {
                        let _ = memo.validate(&f.chain, &f.store, host, SimTime(100), &crl, &opts);
                    }
                });
            }
        });
        assert_eq!((memo.stats().hits, memo.stats().misses), (9, 3));
    }

    #[test]
    fn received_chain_keys_like_its_decoded_chain() {
        let f = fixture();
        let (crl, opts) = (RevocationList::empty(), ValidationOptions::default());
        let ders: Vec<Vec<u8>> = f.chain.iter().map(Certificate::to_der).collect();
        let received: Vec<ReceivedDer> = ders.iter().map(|d| ReceivedDer::new(d)).collect();
        let query = || {
            ReceivedChain::new(
                &received,
                &f.store,
                "pay.shop.com",
                SimTime(100),
                &crl,
                &opts,
            )
        };
        let memo = ValidationMemo::default();
        let deadline = Deadline::unlimited();
        assert_eq!(query().memo_verdict(&memo), None);
        assert_eq!(query().answer_within(&memo, &deadline), Ok(None));
        assert_eq!(
            deadline.spent(),
            0,
            "a probe that cannot answer charges nothing"
        );

        let chain: Vec<Certificate> = received.iter().map(|r| r.decode().unwrap()).collect();
        let miss = query()
            .validate_within(Some(&memo), &chain, &deadline)
            .unwrap();
        assert_eq!((miss.verdict.clone(), miss.hit), (Ok(()), false));
        // Stored under the key a decoded chain builds, and found by the bytes.
        assert_eq!(
            memo.verdict(
                &f.chain,
                &f.store,
                "pay.shop.com",
                SimTime(100),
                &crl,
                &opts
            ),
            Some(Ok(()))
        );
        let before = deadline.spent();
        assert_eq!(query().answer_within(&memo, &deadline), Ok(Some(Ok(()))));
        assert_eq!(deadline.spent() - before, COST_MEMO_PROBE);
        assert_eq!((memo.stats().hits, memo.stats().misses), (1, 1));
        assert_eq!(
            query().answer_within(&memo, &Deadline::with_budget(COST_MEMO_PROBE - 1)),
            Err(DeadlineExceeded)
        );
        assert_eq!(memo.stats().hits, 1, "a timed-out probe counts nothing");
    }

    #[test]
    fn received_chain_leaves_malformed_verdicts_and_crls_to_the_decoder() {
        let f = fixture();
        let (crl, opts) = (RevocationList::empty(), ValidationOptions::default());
        let memo = ValidationMemo::default();
        // A giant SAN list: validated from values, it is `Malformed`; its
        // bytes do not decode under the standard budget.
        let mut giant = f.chain[0].clone();
        giant.tbs.san = (0..=crate::limits::Budget::STANDARD.max_names)
            .map(|i| format!("h{i}.shop.com"))
            .collect();
        giant.invalidate_derived();
        let chain = vec![giant, f.chain[1].clone(), f.chain[2].clone()];
        let verdict = memo.validate(&chain, &f.store, "pay.shop.com", SimTime(100), &crl, &opts);
        assert!(matches!(verdict, Err(ValidationError::Malformed(_))));
        let ders: Vec<Vec<u8>> = chain.iter().map(Certificate::to_der).collect();
        let received: Vec<ReceivedDer> = ders.iter().map(|d| ReceivedDer::new(d)).collect();
        let query = ReceivedChain::new(
            &received,
            &f.store,
            "pay.shop.com",
            SimTime(100),
            &crl,
            &opts,
        );
        assert_eq!(query.memo_verdict(&memo), None);
        assert!(Certificate::from_der(&ders[0]).is_err());

        // With a revocation list the leaf-revoked bit needs the decoded leaf.
        let ders: Vec<Vec<u8>> = f.chain.iter().map(Certificate::to_der).collect();
        let received: Vec<ReceivedDer> = ders.iter().map(|d| ReceivedDer::new(d)).collect();
        memo.validate(
            &f.chain,
            &f.store,
            "pay.shop.com",
            SimTime(100),
            &crl,
            &opts,
        )
        .unwrap();
        let mut revoking = RevocationList::empty();
        revoking.revoke(f.chain[0].tbs.serial);
        let query = ReceivedChain::new(
            &received,
            &f.store,
            "pay.shop.com",
            SimTime(100),
            &revoking,
            &opts,
        );
        assert_eq!(query.memo_verdict(&memo), None);
        let verdict = query
            .validate_within(Some(&memo), &f.chain, &Deadline::unlimited())
            .unwrap()
            .verdict;
        assert_eq!(
            verdict,
            Err(ValidationError::Revoked {
                serial: f.chain[0].tbs.serial
            })
        );
    }

    #[test]
    fn forged_chain_from_untrusted_ca_rejected() {
        // The MITM scenario: attacker CA not in the store forges the chain.
        let f = fixture();
        let mut rng = SplitMix64::new(0xa77);
        let mut mitm = CertificateAuthority::new_root(
            DistinguishedName::new("mitmproxy", "mitmproxy", "US"),
            &mut rng,
            SimTime(0),
        );
        let key = KeyPair::generate(&mut rng);
        let forged = mitm.issue_leaf(
            &["pay.shop.com".to_string()],
            "Shop",
            &key,
            Validity::starting(SimTime(0), YEAR),
        );
        let chain = vec![forged, mitm.cert.clone()];
        assert!(matches!(
            ok(&f, &chain, "pay.shop.com", SimTime(100)),
            Err(ValidationError::UnknownRoot { .. })
        ));
        // ... but once the MITM CA is installed (test-device setup), it validates.
        let mut store2 = f.store.clone();
        store2.add(mitm.cert.clone());
        validate_chain(
            &chain,
            &store2,
            "pay.shop.com",
            SimTime(100),
            &RevocationList::empty(),
            &ValidationOptions::default(),
        )
        .unwrap();
    }
}
