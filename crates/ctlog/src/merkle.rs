//! RFC 6962-style Merkle hash trees.
//!
//! Certificate Transparency's verifiability rests on one data structure: a
//! binary Merkle tree over the log's entries, hashed with domain separation
//! (`0x00` for leaves, `0x01` for interior nodes) so a leaf can never be
//! confused with a node. From the tree, three artifacts follow:
//!
//! * the **tree head** (root hash at a given size), which the log signs;
//! * **inclusion proofs** — logarithmic evidence that entry `i` is under
//!   the root of a tree of size `n`;
//! * **consistency proofs** — logarithmic evidence that the tree of size
//!   `m` is a prefix of the tree of size `n` (append-only-ness).
//!
//! The proof *generators* live on [`MerkleTree`]; the *verifiers*
//! ([`verify_inclusion`], [`verify_consistency`]) are standalone functions
//! that see only hashes, sizes and proof paths — exactly what a CT monitor
//! or auditor gets over the wire. The verification algorithms follow
//! RFC 9162 §2.1.3.2 / §2.1.4.2.

use pinning_crypto::{sha256, Sha256};
use pinning_pki::cache::CacheCounter;

/// Telemetry for batched proof generation: a **miss** is one authenticator
/// built (a copy of the tree's stored subtree hashes for one tree state,
/// plus at most one node hash per level for its right edge), a **hit** is
/// an inclusion proof served from an authenticator without hashing.
pub static PROOF_BATCH: CacheCounter = CacheCounter::new("merkle-proof-batch");

/// Domain-separation prefix for leaf hashes.
pub const LEAF_PREFIX: u8 = 0x00;
/// Domain-separation prefix for interior-node hashes.
pub const NODE_PREFIX: u8 = 0x01;

/// `sha256(0x00 || data)` — the Merkle leaf hash of an entry.
pub fn leaf_hash(data: &[u8]) -> [u8; 32] {
    let mut h = Sha256::new();
    h.update(&[LEAF_PREFIX]);
    h.update(data);
    h.finalize()
}

/// `sha256(0x01 || left || right)` — the Merkle interior-node hash.
pub fn node_hash(left: &[u8; 32], right: &[u8; 32]) -> [u8; 32] {
    #[cfg(test)]
    tests::NODE_HASHES.with(|n| n.set(n.get() + 1));
    let mut h = Sha256::new();
    h.update(&[NODE_PREFIX]);
    h.update(left);
    h.update(right);
    h.finalize()
}

/// The hash of the empty tree (`sha256("")`, per RFC 6962).
pub fn empty_root() -> [u8; 32] {
    sha256(&[])
}

/// Largest power of two strictly less than `n` (requires `n > 1`).
fn split_point(n: usize) -> usize {
    let mut k = 1;
    while k * 2 < n {
        k *= 2;
    }
    k
}

/// An append-only Merkle tree over opaque leaf data.
///
/// Stores, as they complete, the hash of every perfect subtree (RFC 9162
/// §2.1 "completed subtrees"): an append hashes one interior node on
/// average. Every subtree the RFC recursion visits for a historical size
/// `m` is either a stored perfect subtree or a run of them along the
/// tree's right edge, so roots and proofs for *any* historical size cost
/// lookups plus O(log n) node hashes:
///
/// | operation | node hashes |
/// |---|---|
/// | [`push`](Self::push) | 1 on average, at most ⌈log2 n⌉ |
/// | [`root_at`](Self::root_at), [`root`](Self::root) | popcount(m) − 1 |
/// | [`inclusion_proof`](Self::inclusion_proof) | < ⌈log2 m⌉ |
/// | [`consistency_proof`](Self::consistency_proof) | < 2⌈log2 m⌉ |
/// | [`authenticator`](Self::authenticator) | < ⌈log2 m⌉, plus an O(m) copy |
///
/// Every root and proof is byte-identical to the RFC 6962 recursion over
/// the leaf hashes.
#[derive(Debug, Clone, Default)]
pub struct MerkleTree {
    /// `levels[0]` = leaf hashes; `levels[k][i]` = root of the perfect
    /// subtree over leaves `[i·2^k, (i+1)·2^k)`, pushed once complete.
    levels: Vec<Vec<[u8; 32]>>,
}

impl MerkleTree {
    /// Creates an empty tree.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a leaf; returns its index. Every perfect subtree the leaf
    /// completes is hashed and stored on the way up.
    pub fn push(&mut self, leaf_data: &[u8]) -> u64 {
        let index = self.len();
        let mut node = leaf_hash(leaf_data);
        let mut level = 0;
        loop {
            if level == self.levels.len() {
                self.levels.push(Vec::new());
            }
            let row = &mut self.levels[level];
            row.push(node);
            if row.len() % 2 == 1 {
                break;
            }
            node = node_hash(&row[row.len() - 2], &row[row.len() - 1]);
            level += 1;
        }
        index
    }

    /// Number of leaves.
    pub fn len(&self) -> u64 {
        self.levels.first().map_or(0, Vec::len) as u64
    }

    /// Whether the tree has no leaves.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The leaf hash at `index`.
    pub fn leaf(&self, index: u64) -> Option<[u8; 32]> {
        self.levels.first()?.get(index as usize).copied()
    }

    /// Root over the current tree.
    pub fn root(&self) -> [u8; 32] {
        self.root_at(self.len()).expect("current size is valid")
    }

    /// Root of the historical tree holding the first `size` leaves.
    pub fn root_at(&self, size: u64) -> Option<[u8; 32]> {
        if size > self.len() {
            return None;
        }
        Some(self.range_hash(0, size as usize))
    }

    /// Inclusion proof for leaf `index` in the tree of the first `size`
    /// leaves (RFC 6962 `PATH(m, D[n])`).
    pub fn inclusion_proof(&self, index: u64, size: u64) -> Option<Vec<[u8; 32]>> {
        if index >= size || size > self.len() {
            return None;
        }
        let m = index as usize;
        let (mut lo, mut hi) = (0, size as usize);
        let mut proof = Vec::new();
        // Top-down walk: the sibling of each subtree holding `m`.
        while hi - lo > 1 {
            let mid = lo + split_point(hi - lo);
            if m < mid {
                proof.push(self.range_hash(mid, hi));
                hi = mid;
            } else {
                proof.push(self.range_hash(lo, mid));
                lo = mid;
            }
        }
        proof.reverse();
        Some(proof)
    }

    /// Consistency proof from the tree of size `old` to the tree of size
    /// `new` (RFC 6962 `PROOF(m, D[n])`).
    pub fn consistency_proof(&self, old: u64, new: u64) -> Option<Vec<[u8; 32]>> {
        if old > new || new > self.len() {
            return None;
        }
        if old == 0 || old == new {
            // Consistency with the empty tree (or with itself) is vacuous.
            return Some(Vec::new());
        }
        let old = old as usize;
        let (mut lo, mut hi) = (0, new as usize);
        // Whether `[lo, hi)` is still a left-aligned prefix of the old tree
        // (RFC 6962 `SUBPROOF`'s flag `b`).
        let mut whole_subtree = true;
        let mut proof = Vec::new();
        // Top-down walk to the subtree that ends exactly at `old`.
        while old != hi {
            let mid = lo + split_point(hi - lo);
            if old <= mid {
                proof.push(self.range_hash(mid, hi));
                hi = mid;
            } else {
                proof.push(self.range_hash(lo, mid));
                lo = mid;
                whole_subtree = false;
            }
        }
        if !whole_subtree {
            proof.push(self.range_hash(lo, hi));
        }
        proof.reverse();
        Some(proof)
    }

    /// Builds a [`TreeAuthenticator`] over the historical tree of the first
    /// `size` leaves: a copy of the stored perfect subtrees plus one tail
    /// node per level, then hash-free inclusion proofs for every index.
    /// Use it whenever more than one proof is needed for the same tree
    /// state (monitors batch-verifying a new STH, resolvers proving a pin's
    /// log entries).
    pub fn authenticator(&self, size: u64) -> Option<TreeAuthenticator> {
        if size > self.len() {
            return None;
        }
        PROOF_BATCH.miss();
        let size = size as usize;
        let mut levels = Vec::new();
        // Root of the unpaired right-edge subtree at the current level:
        // leaves `[(size >> k) << k, size)`, absent when that is empty.
        let mut tail: Option<[u8; 32]> = None;
        for k in 0.. {
            let full = size >> k;
            let stored = self.levels.get(k).map_or(&[][..], |row| &row[..full]);
            let mut row = Vec::with_capacity(full + 1);
            row.extend_from_slice(stored);
            row.extend(tail);
            if full % 2 == 1 {
                // The last stored node has no stored partner: one level up
                // it pairs with the tail, or is promoted alone.
                let last = stored[full - 1];
                tail = Some(tail.map_or(last, |t| node_hash(&last, &t)));
            }
            let top = row.len() <= 1;
            levels.push(row);
            if top {
                break;
            }
        }
        Some(TreeAuthenticator { levels })
    }

    /// RFC 6962 `MTH` over leaves `[lo, hi)` for a range the RFC recursion
    /// visits (`lo` is a multiple of the largest power of two in
    /// `hi - lo`): the stored perfect subtrees that tile the range, largest
    /// first, folded from the right — `popcount(hi - lo) - 1` node hashes.
    fn range_hash(&self, lo: usize, hi: usize) -> [u8; 32] {
        let size = hi - lo;
        let mut acc: Option<[u8; 32]> = None;
        let mut higher = size;
        while higher != 0 {
            let k = higher.trailing_zeros() as usize;
            higher &= higher - 1;
            // The 2^k-leaf piece starts after every larger piece.
            debug_assert_eq!((lo + higher) % (1 << k), 0, "unaligned range");
            let piece = self.levels[k][(lo + higher) >> k];
            acc = Some(acc.map_or(piece, |right| node_hash(&piece, &right)));
        }
        acc.unwrap_or_else(empty_root)
    }
}

/// Interior-node hashes for one fixed tree state.
///
/// An authenticator lays the tree state out level by level and assembles
/// each audit path by lookup, so a batch of `k` proofs for one state costs
/// no hashing after it is built. The node layout pairs adjacent nodes per
/// level and promotes an unpaired tail node unchanged, which reproduces the
/// RFC 6962 largest-power-of-two split exactly (the promoted node *is* the
/// right subtree's root at that level), so proofs are byte-identical to
/// [`MerkleTree::inclusion_proof`]. [`MerkleTree::authenticator`] builds
/// one from the tree's stored subtree hashes without rehashing them.
#[derive(Debug, Clone)]
pub struct TreeAuthenticator {
    /// `levels[0]` = leaf hashes; `levels[k+1][i]` = hash of the subtree
    /// covering `levels[k][2i..2i+2]` (or the promoted `levels[k][2i]`).
    levels: Vec<Vec<[u8; 32]>>,
}

impl TreeAuthenticator {
    /// Number of leaves in the covered tree state.
    pub fn size(&self) -> u64 {
        self.levels[0].len() as u64
    }

    /// Root of the covered tree state.
    pub fn root(&self) -> [u8; 32] {
        match self.levels.last() {
            Some(top) if !top.is_empty() => top[0],
            _ => empty_root(),
        }
    }

    /// Inclusion proof for leaf `index` — identical bytes to
    /// [`MerkleTree::inclusion_proof`] at this tree size, but assembled
    /// from the laid-out nodes without any hashing.
    pub fn inclusion_proof(&self, index: u64) -> Option<Vec<[u8; 32]>> {
        let mut idx = index as usize;
        if idx >= self.levels[0].len() {
            return None;
        }
        PROOF_BATCH.hit();
        let mut proof = Vec::new();
        for level in &self.levels[..self.levels.len().saturating_sub(1)] {
            let sibling = idx ^ 1;
            if let Some(h) = level.get(sibling) {
                proof.push(*h);
            }
            // No sibling: this node was promoted unchanged, nothing to add.
            idx >>= 1;
        }
        Some(proof)
    }
}

/// Verifies an inclusion proof: does `leaf` sit at `index` under `root`,
/// the head of a tree of `size` leaves? (RFC 9162 §2.1.3.2.)
pub fn verify_inclusion(
    leaf: &[u8; 32],
    index: u64,
    size: u64,
    proof: &[[u8; 32]],
    root: &[u8; 32],
) -> bool {
    if index >= size {
        return false;
    }
    let mut fnode = index;
    let mut snode = size - 1;
    let mut r = *leaf;
    for p in proof {
        if snode == 0 {
            return false; // proof longer than the path to the root
        }
        if fnode & 1 == 1 || fnode == snode {
            r = node_hash(p, &r);
            if fnode & 1 == 0 {
                while fnode & 1 == 0 {
                    if fnode == 0 {
                        return false;
                    }
                    fnode >>= 1;
                    snode >>= 1;
                }
            }
        } else {
            r = node_hash(&r, p);
        }
        fnode >>= 1;
        snode >>= 1;
    }
    snode == 0 && r == *root
}

/// Verifies a consistency proof: is the tree with head `old_root` at size
/// `old_size` a prefix of the tree with head `new_root` at size
/// `new_size`? (RFC 9162 §2.1.4.2.)
pub fn verify_consistency(
    old_size: u64,
    new_size: u64,
    old_root: &[u8; 32],
    new_root: &[u8; 32],
    proof: &[[u8; 32]],
) -> bool {
    if old_size > new_size {
        return false;
    }
    if old_size == new_size {
        return proof.is_empty() && old_root == new_root;
    }
    if old_size == 0 {
        // Any tree is consistent with the empty tree.
        return proof.is_empty() && *old_root == empty_root();
    }
    let mut proof = proof.to_vec();
    if proof.is_empty() {
        return false;
    }
    // An old size that is an exact power of two is itself a complete
    // subtree of the new tree; its root seeds the recomputation.
    if old_size.is_power_of_two() {
        proof.insert(0, *old_root);
    }
    let mut fnode = old_size - 1;
    let mut snode = new_size - 1;
    while fnode & 1 == 1 {
        fnode >>= 1;
        snode >>= 1;
    }
    let mut fr = proof[0];
    let mut sr = proof[0];
    for c in &proof[1..] {
        if snode == 0 {
            return false;
        }
        if fnode & 1 == 1 || fnode == snode {
            fr = node_hash(c, &fr);
            sr = node_hash(c, &sr);
            if fnode & 1 == 0 {
                while fnode != 0 && fnode & 1 == 0 {
                    fnode >>= 1;
                    snode >>= 1;
                }
            }
        } else {
            sr = node_hash(&sr, c);
        }
        fnode >>= 1;
        snode >>= 1;
    }
    fr == *old_root && sr == *new_root && snode == 0
}

#[cfg(test)]
mod tests {
    use super::*;
    use pinning_crypto::SplitMix64;
    use std::cell::Cell;

    thread_local! {
        /// Node hashes computed on this thread, counted by [`node_hash`]
        /// in test builds only.
        pub(super) static NODE_HASHES: Cell<u64> = const { Cell::new(0) };
    }

    /// Node hashes `f` computes on this thread.
    fn node_hashes_in(f: impl FnOnce()) -> u64 {
        let before = NODE_HASHES.with(Cell::get);
        f();
        NODE_HASHES.with(Cell::get) - before
    }

    // The RFC 6962 recursions over bare leaf hashes, rehashing every
    // subtree they visit: the reference the stored-subtree tree must
    // match byte for byte.

    /// RFC 6962 `MTH(D[n])`.
    fn subtree_hash(leaves: &[[u8; 32]]) -> [u8; 32] {
        match leaves.len() {
            0 => empty_root(),
            1 => leaves[0],
            n => {
                let k = split_point(n);
                node_hash(&subtree_hash(&leaves[..k]), &subtree_hash(&leaves[k..]))
            }
        }
    }

    /// RFC 6962 `PATH(m, D[n])`.
    fn path(m: usize, leaves: &[[u8; 32]]) -> Vec<[u8; 32]> {
        let n = leaves.len();
        if n <= 1 {
            return Vec::new();
        }
        let k = split_point(n);
        let mut proof;
        if m < k {
            proof = path(m, &leaves[..k]);
            proof.push(subtree_hash(&leaves[k..]));
        } else {
            proof = path(m - k, &leaves[k..]);
            proof.push(subtree_hash(&leaves[..k]));
        }
        proof
    }

    /// RFC 6962 `SUBPROOF(m, D[n], b)`.
    fn subproof(m: usize, leaves: &[[u8; 32]], whole_subtree: bool) -> Vec<[u8; 32]> {
        let n = leaves.len();
        if m == n {
            return if whole_subtree {
                Vec::new()
            } else {
                vec![subtree_hash(leaves)]
            };
        }
        let k = split_point(n);
        let mut proof;
        if m <= k {
            proof = subproof(m, &leaves[..k], whole_subtree);
            proof.push(subtree_hash(&leaves[k..]));
        } else {
            proof = subproof(m - k, &leaves[k..], false);
            proof.push(subtree_hash(&leaves[..k]));
        }
        proof
    }

    fn tree_of(n: u64) -> MerkleTree {
        let mut t = MerkleTree::new();
        for i in 0..n {
            t.push(format!("entry-{i}").as_bytes());
        }
        t
    }

    #[test]
    fn empty_tree_root_is_sha256_of_nothing() {
        assert_eq!(MerkleTree::new().root(), sha256(&[]));
    }

    #[test]
    fn single_leaf_root_is_leaf_hash() {
        let mut t = MerkleTree::new();
        t.push(b"only");
        assert_eq!(t.root(), leaf_hash(b"only"));
    }

    #[test]
    fn rfc6962_seven_leaf_structure() {
        // For 7 leaves the split points are 4, then 2 — re-derive the root
        // by hand and compare.
        let t = tree_of(7);
        let l: Vec<[u8; 32]> = (0..7)
            .map(|i| leaf_hash(format!("entry-{i}").as_bytes()))
            .collect();
        let left = node_hash(&node_hash(&l[0], &l[1]), &node_hash(&l[2], &l[3]));
        let right = node_hash(&node_hash(&l[4], &l[5]), &l[6]);
        assert_eq!(t.root(), node_hash(&left, &right));
    }

    #[test]
    fn inclusion_proofs_verify_for_every_entry_at_every_size() {
        let t = tree_of(33);
        for size in 1..=t.len() {
            let root = t.root_at(size).unwrap();
            for index in 0..size {
                let proof = t.inclusion_proof(index, size).unwrap();
                let leaf = t.leaf(index).unwrap();
                assert!(
                    verify_inclusion(&leaf, index, size, &proof, &root),
                    "inclusion failed at index {index} size {size}"
                );
            }
        }
    }

    #[test]
    fn consistency_proofs_verify_across_all_growth_pairs() {
        let t = tree_of(20);
        for old in 0..=t.len() {
            for new in old..=t.len() {
                let proof = t.consistency_proof(old, new).unwrap();
                assert!(
                    verify_consistency(
                        old,
                        new,
                        &t.root_at(old).unwrap(),
                        &t.root_at(new).unwrap(),
                        &proof,
                    ),
                    "consistency failed {old} -> {new}"
                );
            }
        }
    }

    #[test]
    fn tampered_inclusion_proof_fails() {
        let t = tree_of(12);
        let size = t.len();
        let root = t.root();
        let mut rng = SplitMix64::new(0x7a);
        for index in 0..size {
            let proof = t.inclusion_proof(index, size).unwrap();
            let leaf = t.leaf(index).unwrap();
            // Flip one random bit in the leaf.
            let mut bad_leaf = leaf;
            let bit = rng.next_below(256) as usize;
            bad_leaf[bit / 8] ^= 1 << (bit % 8);
            assert!(!verify_inclusion(&bad_leaf, index, size, &proof, &root));
            // Flip one random bit in one proof node.
            if !proof.is_empty() {
                let mut bad = proof.clone();
                let node = rng.next_below(bad.len() as u64) as usize;
                let bit = rng.next_below(256) as usize;
                bad[node][bit / 8] ^= 1 << (bit % 8);
                assert!(!verify_inclusion(&leaf, index, size, &bad, &root));
            }
            // Wrong index.
            assert!(!verify_inclusion(&leaf, (index + 1) % size, size, &proof, &root) || size == 1);
        }
    }

    #[test]
    fn wrong_size_or_root_fails() {
        let t = tree_of(9);
        let proof = t.inclusion_proof(3, 9).unwrap();
        let leaf = t.leaf(3).unwrap();
        let root = t.root();
        // A smaller claimed size means a shorter path: the proof is too long.
        assert!(!verify_inclusion(&leaf, 3, 8, &proof, &root));
        // (Size *over*-claims against the same root are caught at the STH
        // layer, which binds size to root under the log signature.)
        let mut bad_root = root;
        bad_root[0] ^= 0x80;
        assert!(!verify_inclusion(&leaf, 3, 9, &proof, &bad_root));
    }

    #[test]
    fn forged_consistency_rejected() {
        let t = tree_of(16);
        let proof = t.consistency_proof(5, 16).unwrap();
        let old = t.root_at(5).unwrap();
        let new = t.root();
        assert!(verify_consistency(5, 16, &old, &new, &proof));
        // A different "old root" claims a different history.
        let mut other = MerkleTree::new();
        for i in 0..5 {
            other.push(format!("forged-{i}").as_bytes());
        }
        assert!(!verify_consistency(5, 16, &other.root(), &new, &proof));
        // Tampered proof node.
        let mut bad = proof.clone();
        bad[0][31] ^= 1;
        assert!(!verify_consistency(5, 16, &old, &new, &bad));
        // Truncated proof.
        assert!(!verify_consistency(
            5,
            16,
            &old,
            &new,
            &proof[..proof.len() - 1]
        ));
    }

    #[test]
    fn out_of_range_requests_return_none() {
        let t = tree_of(4);
        assert!(t.inclusion_proof(4, 4).is_none());
        assert!(t.inclusion_proof(0, 5).is_none());
        assert!(t.consistency_proof(3, 2).is_none());
        assert!(t.consistency_proof(0, 5).is_none());
        assert!(t.root_at(5).is_none());
    }

    #[test]
    fn stored_subtrees_match_the_recursive_reference_at_every_size() {
        const N: usize = 70;
        let leaves: Vec<[u8; 32]> = (0..N)
            .map(|i| leaf_hash(format!("entry-{i}").as_bytes()))
            .collect();
        // A reference answer depends only on the leaves it covers, so each
        // is computed once and compared after every push.
        let roots: Vec<[u8; 32]> = (0..=N).map(|m| subtree_hash(&leaves[..m])).collect();
        let paths: Vec<Vec<Vec<[u8; 32]>>> = (0..=N)
            .map(|m| (0..m).map(|i| path(i, &leaves[..m])).collect())
            .collect();
        let consistency: Vec<Vec<Vec<[u8; 32]>>> = (0..=N)
            .map(|b| {
                (0..=b)
                    .map(|a| match a {
                        0 => Vec::new(),
                        a if a == b => Vec::new(),
                        a => subproof(a, &leaves[..b], true),
                    })
                    .collect()
            })
            .collect();

        let mut t = MerkleTree::new();
        for n in 1..=N {
            t.push(format!("entry-{}", n - 1).as_bytes());
            assert_eq!(t.root(), roots[n], "root at n={n}");
            for m in 0..=n {
                let size = m as u64;
                assert_eq!(t.root_at(size), Some(roots[m]), "root_at({m}), n={n}");
                let auth = t.authenticator(size).unwrap();
                assert_eq!(auth.size(), size);
                assert_eq!(auth.root(), roots[m], "authenticator({m}), n={n}");
                assert!(auth.inclusion_proof(size).is_none());
                for (i, want) in paths[m].iter().enumerate() {
                    let (index, want) = (i as u64, Some(want.clone()));
                    assert_eq!(t.inclusion_proof(index, size), want, "({i}, {m}), n={n}");
                    assert_eq!(auth.inclusion_proof(index), want, "auth ({i}, {m}), n={n}");
                }
                for (a, want) in consistency[m].iter().enumerate() {
                    assert_eq!(
                        t.consistency_proof(a as u64, size).as_ref(),
                        Some(want),
                        "consistency {a} -> {m}, n={n}"
                    );
                }
            }
            assert!(t.authenticator(n as u64 + 1).is_none());
        }
    }

    #[test]
    fn roots_and_proofs_hash_at_most_log_squared_nodes() {
        let n = 1_000u64;
        let t = tree_of(n);
        let log2 = u64::from(u64::BITS - (n - 1).leading_zeros());
        let bound = log2 * log2;
        let check = |what: String, hashes: u64| {
            assert!(hashes <= bound, "{what}: {hashes} node hashes > {bound}");
        };
        for size in (1..=n).step_by(7).chain([511, 512, 513, 999, 1000]) {
            check(
                format!("root_at({size})"),
                node_hashes_in(|| {
                    t.root_at(size);
                }),
            );
            check(
                format!("authenticator({size})"),
                node_hashes_in(|| {
                    t.authenticator(size);
                }),
            );
            for other in (0..size).step_by(13).chain([size - 1]) {
                check(
                    format!("inclusion_proof({other}, {size})"),
                    node_hashes_in(|| {
                        t.inclusion_proof(other, size);
                    }),
                );
                check(
                    format!("consistency_proof({other}, {size})"),
                    node_hashes_in(|| {
                        t.consistency_proof(other, size);
                    }),
                );
            }
        }
        check(
            "root".into(),
            node_hashes_in(|| {
                t.root();
            }),
        );
    }

    #[test]
    fn push_hashes_one_node_on_average() {
        let n = 1_024u64;
        let hashes = node_hashes_in(|| {
            tree_of(n);
        });
        assert_eq!(hashes, n - 1);
    }

    #[test]
    fn domain_separation_distinguishes_leaf_and_node() {
        let a = [1u8; 32];
        let b = [2u8; 32];
        let mut concat = Vec::new();
        concat.extend_from_slice(&a);
        concat.extend_from_slice(&b);
        assert_ne!(node_hash(&a, &b), leaf_hash(&concat));
    }
}
