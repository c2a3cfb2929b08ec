//! Per-app generation: products, pinning plans, consistency profiles,
//! behaviours, and package builds.

use crate::world::{Generator, NOISE_DOMAINS};
use pinning_app::app::MobileApp;
use pinning_app::behavior::{AppBehavior, Interaction, PlannedConnection};
use pinning_app::builder::{build_package, BuildSpec};
use pinning_app::category::Category;
use pinning_app::pii::PiiType;
use pinning_app::pinning::{CertAssetFormat, DomainPinRule, PinSource, PinStorage, PinTarget};
use pinning_app::platform::{AppId, Platform};
use pinning_app::sdk::{self, SdkSpec};
use pinning_crypto::SplitMix64;
use pinning_pki::pin::PinAlgorithm;
use pinning_pki::Certificate;
use pinning_tls::TlsLibrary;
use std::collections::HashMap;

/// Cross-platform pinning consistency profiles, weighted to reproduce
/// Figures 2–4 (27 both-platform pinners: 13 identical + 2 consistent with
/// extras, 2 inconsistent-with-overlap, 4 inconsistent one-sided, 6
/// disjoint/inconclusive).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum ConsistencyProfile {
    /// Same pinned domain set on both platforms.
    Identical,
    /// One common pinned domain; each platform pins extras the other never
    /// contacts (still *consistent* by the paper's definition).
    ConsistentExtra,
    /// Common pinned domain, plus a domain pinned on one platform that the
    /// other contacts unpinned.
    InconsistentOverlap,
    /// A pinned domain on one platform appears unpinned on the other; no
    /// common pinned domain.
    InconsistentOneSided,
    /// Pinned domains on each platform never appear on the other.
    Disjoint,
}

fn sample_profile(rng: &mut SplitMix64) -> ConsistencyProfile {
    match rng.next_below(27) {
        0..=12 => ConsistencyProfile::Identical,
        13..=14 => ConsistencyProfile::ConsistentExtra,
        15..=16 => ConsistencyProfile::InconsistentOverlap,
        17..=20 => ConsistencyProfile::InconsistentOneSided,
        _ => ConsistencyProfile::Disjoint,
    }
}

/// Which first-party domains a platform's app pins / contacts.
#[derive(Debug, Clone, Default)]
pub(crate) struct PlatformPlan {
    pub(crate) pins_first_party: bool,
    /// Domains pinned (⊆ contacted).
    pub(crate) pinned: Vec<String>,
    /// All first-party domains contacted.
    pub(crate) contacted: Vec<String>,
    /// Custom-PKI pinned domain (exclusive to this platform), if any.
    pub(crate) custom_pki_domain: Option<String>,
    /// Self-signed oddball domain (§5.3.1), if any.
    pub(crate) self_signed_domain: Option<String>,
    /// Force SDK pin activation to match the sibling platform.
    pub(crate) synced_sdk_rolls: bool,
    /// Keep bundled SDK pinning dormant so the planned first-party
    /// consistency profile is what the pipeline observes.
    pub(crate) suppress_sdk_pinning: bool,
}

pub(crate) struct Product {
    pub(crate) key: String,
    pub(crate) name: String,
    pub(crate) org: String,
    pub(crate) category: Category,
    pub(crate) cross: bool,
    pub(crate) rank_score_android: f64,
    pub(crate) rank_score_ios: f64,
    pub(crate) base_domain: String,
    pub(crate) fp_domains: Vec<String>,
    pub(crate) android: Option<PlatformPlan>,
    pub(crate) ios: Option<PlatformPlan>,
    pub(crate) sdk_names: Vec<&'static str>,
}

const HEAD_CATEGORY_WEIGHTS: &[(Category, u32)] = &[
    (Category::Games, 34),
    (Category::Photography, 7),
    (Category::Weather, 4),
    (Category::Finance, 5),
    (Category::Shopping, 5),
    (Category::Entertainment, 4),
    (Category::FoodAndDrink, 4),
    (Category::Social, 5),
    (Category::Productivity, 5),
    (Category::Music, 3),
    (Category::Lifestyle, 4),
    (Category::Education, 5),
    (Category::Travel, 4),
    (Category::Business, 3),
    (Category::Communication, 2),
    (Category::Health, 2),
    (Category::Sports, 2),
    (Category::Navigation, 1),
    (Category::News, 1),
];

const TAIL_CATEGORY_WEIGHTS: &[(Category, u32)] = &[
    (Category::Education, 12),
    (Category::Games, 13),
    (Category::Tools, 6),
    (Category::Music, 6),
    (Category::Books, 6),
    (Category::Business, 8),
    (Category::Lifestyle, 6),
    (Category::Entertainment, 4),
    (Category::Travel, 4),
    (Category::Personalization, 4),
    (Category::FoodAndDrink, 5),
    (Category::Health, 4),
    (Category::Shopping, 3),
    (Category::Finance, 3),
    (Category::Social, 3),
    (Category::Productivity, 3),
    (Category::Photography, 2),
    (Category::Communication, 2),
    (Category::Sports, 2),
    (Category::Navigation, 1),
    (Category::Events, 1),
    (Category::Dating, 1),
    (Category::Comics, 1),
    (Category::Automobile, 1),
    (Category::News, 2),
];

fn weighted_category(table: &[(Category, u32)], rng: &mut SplitMix64) -> Category {
    let total: u32 = table.iter().map(|(_, w)| w).sum();
    let mut pick = rng.next_below(total as u64) as u32;
    for (cat, w) in table {
        if pick < *w {
            return *cat;
        }
        pick -= w;
    }
    table.last().expect("non-empty table").0
}

/// First-party pinning probability for a product on one platform.
fn fp_pin_prob(
    gen: &Generator<'_>,
    platform: Platform,
    rank_score: f64,
    category: Category,
) -> f64 {
    let rates = gen.config.rates(platform);
    // Popularity interpolation: the head of the store pins at the popular
    // rate, the tail at the tail rate.
    let base = if rank_score < 0.10 {
        rates.first_party_popular
    } else if rank_score < 0.30 {
        (rates.first_party_popular + rates.first_party_tail) / 2.0
    } else {
        rates.first_party_tail
    };
    let boost = if category.is_data_sensitive() {
        rates.sensitive_category_boost
    } else {
        1.0
    };
    (base * boost).min(0.9)
}

/// Generates every product, then every app, returning
/// `(apps, android_listing, ios_listing, alternativeto, products,
/// hostile_apps)`.
#[allow(clippy::type_complexity)]
pub(crate) fn generate_apps(
    gen: &mut Generator<'_>,
) -> (
    Vec<MobileApp>,
    Vec<usize>,
    Vec<usize>,
    Vec<String>,
    HashMap<String, (Option<usize>, Option<usize>)>,
    Vec<usize>,
) {
    let Catalog {
        products,
        mut apps,
        scores,
        product_index,
    } = build_catalog(gen);

    // --- 4. Listings (rank order) ---
    let (android_listing, ios_listing) = list_apps(&mut apps, &scores);

    // --- 5. AlternativeTo cross listing (popularity order) ---
    let mut cross: Vec<&Product> = products.iter().filter(|p| p.cross).collect();
    cross.sort_by(|a, b| {
        (a.rank_score_android + a.rank_score_ios)
            .partial_cmp(&(b.rank_score_android + b.rank_score_ios))
            .expect("scores are finite")
    });
    let alternativeto: Vec<String> = cross.iter().map(|p| p.key.clone()).collect();

    // --- 6. Adversarial cohort (after listings, so rankings are
    //        untouched; hostile apps live outside the store) ---
    let hostile_apps = plant_adversarial_apps(gen, &mut apps);

    (
        apps,
        android_listing,
        ios_listing,
        alternativeto,
        product_index,
        hostile_apps,
    )
}

/// Steps 1–3 of [`generate_apps`]: every product, its servers, and its
/// apps.
struct Catalog {
    products: Vec<Product>,
    apps: Vec<MobileApp>,
    /// Each app's store rank score, indexed like `apps`.
    scores: Vec<f64>,
    product_index: HashMap<String, (Option<usize>, Option<usize>)>,
}

fn build_catalog(gen: &mut Generator<'_>) -> Catalog {
    let store_size = gen.config.store_size;
    let n_cross = gen.config.n_cross_products;
    let n_products = 2 * store_size - n_cross;

    // --- 1. Products and plans ---
    let mut products = Vec::with_capacity(n_products);
    for i in 0..n_products {
        products.push(make_product(gen, i, n_cross, store_size));
    }

    // §5.3.1's self-signed oddballs: first Android-pinning product and
    // first iOS-pinning product get a long-lived self-signed destination.
    plant_self_signed_oddballs(&mut products);

    // --- 2. Register first-party servers ---
    for p in &products {
        for d in &p.fp_domains {
            gen.register_public_server(vec![d.clone()], &p.org);
        }
        for plan in [&p.android, &p.ios].into_iter().flatten() {
            if let Some(d) = &plan.custom_pki_domain {
                gen.register_custom_server(vec![d.clone()], &p.org);
            }
            if let Some(d) = &plan.self_signed_domain {
                let years = if plan.custom_pki_domain.is_some() {
                    10
                } else {
                    27
                };
                gen.register_self_signed_server(vec![d.clone()], &p.org, years);
            }
        }
    }

    // --- 3. Apps, each with its rank score recorded while its product
    //        is at hand, so the listings never look a product up ---
    let mut apps = Vec::new();
    let mut scores = Vec::new();
    let mut product_index = HashMap::new();
    for (pi, p) in products.iter().enumerate() {
        let mut push = |platform, score| {
            let idx = apps.len();
            apps.push(build_app(gen, p, pi, platform));
            debug_assert_eq!(apps[idx].product_key, p.key);
            scores.push(score);
            idx
        };
        let android = p
            .android
            .is_some()
            .then(|| push(Platform::Android, p.rank_score_android));
        let ios = p
            .ios
            .is_some()
            .then(|| push(Platform::Ios, p.rank_score_ios));
        product_index.insert(p.key.clone(), (android, ios));
    }

    Catalog {
        products,
        apps,
        scores,
        product_index,
    }
}

/// Step 4 of [`generate_apps`]: both store listings, most popular first,
/// with every listed app's `popularity_rank` set to its 1-based position.
fn list_apps(apps: &mut [MobileApp], scores: &[f64]) -> (Vec<usize>, Vec<usize>) {
    let android = rank_listing(apps, scores, Platform::Android);
    let ios = rank_listing(apps, scores, Platform::Ios);
    for listing in [&android, &ios] {
        for (rank, &i) in listing.iter().enumerate() {
            apps[i].popularity_rank = rank as u32 + 1;
        }
    }
    (android, ios)
}

/// The indices of `platform`'s apps, stably sorted by their `scores`.
/// Reads each score once.
fn rank_listing(apps: &[MobileApp], scores: &[f64], platform: Platform) -> Vec<usize> {
    let mut keyed: Vec<(f64, usize)> = apps
        .iter()
        .enumerate()
        .filter(|(_, a)| a.id.platform == platform)
        .map(|(i, _)| {
            #[cfg(test)]
            tests::SCORE_READS.with(|n| n.set(n.get() + 1));
            (scores[i], i)
        })
        .collect();
    keyed.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("scores are finite"));
    keyed.into_iter().map(|(_, i)| i).collect()
}

pub(crate) fn make_product(
    gen: &mut Generator<'_>,
    i: usize,
    n_cross: usize,
    store_size: usize,
) -> Product {
    let mut rng = gen.rng.derive(&format!("product/{i}"));
    let cross = i < n_cross;
    let key = format!("app{i:05}");
    let name = format!("App {i}");
    let org = format!("Dev{i} Inc");
    let base_domain = format!("{key}.example");

    // Cross-platform (AlternativeTo-listed) products skew popular in the
    // store charts (mildly) and are mature products that pin like popular
    // apps (strongly) — the paper's Common apps pin at popular-like rates
    // without all sitting in the top charts.
    let pop_bias = if cross { 0.8 } else { 1.0 };
    let rank_score_android = rng.next_f64() * pop_bias;
    let rank_score_ios = (rank_score_android * 0.7 + rng.next_f64() * 0.3) * pop_bias.max(1.0);
    let pin_bias = if cross { 0.10 } else { 1.0 };

    let tier_score = rank_score_android.min(rank_score_ios);
    let category = if tier_score < 0.25 {
        weighted_category(HEAD_CATEGORY_WEIGHTS, &mut rng)
    } else {
        weighted_category(TAIL_CATEGORY_WEIGHTS, &mut rng)
    };

    // First-party domains.
    let mut fp_domains = vec![format!("api.{base_domain}")];
    if cross || rng.chance(0.8) {
        // Cross-platform products always have a web presence (that is how
        // AlternativeTo indexes them).
        fp_domains.push(format!("www.{base_domain}"));
    }
    if rng.chance(0.4) {
        fp_domains.push(format!("cdn.{base_domain}"));
    }
    if rng.chance(0.3) {
        fp_domains.push(format!("auth.{base_domain}"));
    }

    // On-platform presence.
    let on_android = cross || i < n_cross + (store_size - n_cross);
    let on_ios = cross || i >= n_cross + (store_size - n_cross);

    // Pinning plans (pin probabilities use the maturity-biased score).
    // Cross-platform products pin with a *shared product propensity*: the
    // paper's Common dataset pins at nearly identical rates on the two
    // platforms (8.17% vs 8.52%), unlike the stores at large.
    let pa_base = fp_pin_prob(
        gen,
        Platform::Android,
        rank_score_android * pin_bias,
        category,
    );
    let pa = if cross {
        (pa_base * 2.2).min(0.9)
    } else {
        pa_base
    };
    let pi = if cross {
        pa * 1.05
    } else {
        fp_pin_prob(gen, Platform::Ios, rank_score_ios * pin_bias, category)
    };
    let (mut android_plan, mut ios_plan) = if cross {
        cross_plans(&mut rng, &fp_domains, pa, pi)
    } else {
        (
            single_plan(&mut rng, &fp_domains, pa),
            single_plan(&mut rng, &fp_domains, pi),
        )
    };
    if let Some(plan) = android_plan.as_mut() {
        maybe_custom_pki(gen, &mut rng, plan, &base_domain);
    }
    if let Some(plan) = ios_plan.as_mut() {
        maybe_custom_pki(gen, &mut rng, plan, &base_domain);
    }

    // SDK adoption (shared base list for cross products): popular apps
    // bundle many SDKs, tail apps few — which is what pushes SDK-driven
    // pinning toward the head of the store (Table 3's Popular≫Random gap).
    let sdk_names = pick_sdks(&mut rng, category, tier_score * pin_bias, cross);

    Product {
        key,
        name,
        org,
        category,
        cross,
        rank_score_android,
        rank_score_ios,
        base_domain,
        fp_domains,
        android: on_android.then_some(android_plan.unwrap_or_default()),
        ios: on_ios.then_some(ios_plan.unwrap_or_default()),
        sdk_names,
    }
}

fn maybe_custom_pki(
    gen: &Generator<'_>,
    rng: &mut SplitMix64,
    plan: &mut PlatformPlan,
    base_domain: &str,
) {
    if plan.pins_first_party && rng.chance(gen.config.custom_pki_prob) {
        let d = format!("vpn.{base_domain}");
        plan.custom_pki_domain = Some(d.clone());
        plan.pinned.push(d.clone());
        plan.contacted.push(d);
    }
}

/// A single-platform plan: pin 1–2 of the first-party domains or none.
fn single_plan(rng: &mut SplitMix64, fp: &[String], p: f64) -> Option<PlatformPlan> {
    let contacted = contact_set(rng, fp);
    let pins = rng.chance(p);
    let pinned = if pins {
        let n = 1 + rng.next_below(2) as usize;
        contacted.iter().take(n).cloned().collect()
    } else {
        Vec::new()
    };
    Some(PlatformPlan {
        pins_first_party: pins,
        pinned,
        contacted,
        custom_pki_domain: None,
        self_signed_domain: None,
        synced_sdk_rolls: false,
        suppress_sdk_pinning: false,
    })
}

/// Which first-party domains the app actually contacts at launch — always
/// `api.`, the rest probabilistically.
fn contact_set(rng: &mut SplitMix64, fp: &[String]) -> Vec<String> {
    let mut out = vec![fp[0].clone()];
    for d in &fp[1..] {
        if rng.chance(0.6) {
            out.push(d.clone());
        }
    }
    out
}

/// Coordinated plans for a cross-platform product, with the §5.1
/// consistency structure.
fn cross_plans(
    rng: &mut SplitMix64,
    fp: &[String],
    pa: f64,
    pi: f64,
) -> (Option<PlatformPlan>, Option<PlatformPlan>) {
    // Correlated pinning: both / android-only / ios-only / neither.
    let p_both = 0.75 * pa.min(pi);
    let p_a_only = (pa - p_both).max(0.0);
    let p_i_only = (pi - p_both).max(0.0);
    let u = rng.next_f64();
    let (pin_a, pin_i) = if u < p_both {
        (true, true)
    } else if u < p_both + p_a_only {
        (true, false)
    } else if u < p_both + p_a_only + p_i_only {
        (false, true)
    } else {
        (false, false)
    };

    let mut a = PlatformPlan {
        pins_first_party: pin_a,
        ..Default::default()
    };
    let mut i = PlatformPlan {
        pins_first_party: pin_i,
        ..Default::default()
    };

    match (pin_a, pin_i) {
        (true, true) => {
            let profile = sample_profile(rng);
            apply_profile(rng, profile, fp, &mut a, &mut i);
        }
        (true, false) | (false, true) => {
            let (pinner, other) = if pin_a {
                (&mut a, &mut i)
            } else {
                (&mut i, &mut a)
            };
            pinner.contacted = contact_set(rng, fp);
            pinner.pinned = vec![pinner.contacted[0].clone()];
            other.contacted = contact_set(rng, fp);
            // Figure 4: half the exclusive pinners' domains show up unpinned
            // on the other platform, half never appear.
            let pinned_domain = pinner.pinned[0].clone();
            if rng.chance(0.5) {
                if !other.contacted.contains(&pinned_domain) {
                    other.contacted.push(pinned_domain);
                }
            } else {
                other.contacted.retain(|d| d != &pinned_domain);
                if other.contacted.is_empty() {
                    other
                        .contacted
                        .push(fp.last().expect("fp non-empty").clone());
                }
            }
        }
        (false, false) => {
            a.contacted = contact_set(rng, fp);
            i.contacted = contact_set(rng, fp);
        }
    }
    (Some(a), Some(i))
}

fn apply_profile(
    rng: &mut SplitMix64,
    profile: ConsistencyProfile,
    fp: &[String],
    a: &mut PlatformPlan,
    i: &mut PlatformPlan,
) {
    let common = fp[0].clone();
    match profile {
        ConsistencyProfile::Identical => {
            let shared = contact_set(rng, fp);
            let n = 1 + rng.next_below(2) as usize;
            let pinned: Vec<String> = shared.iter().take(n).cloned().collect();
            a.contacted = shared.clone();
            i.contacted = shared;
            a.pinned = pinned.clone();
            i.pinned = pinned;
            a.synced_sdk_rolls = true;
            i.synced_sdk_rolls = true;
        }
        ConsistencyProfile::ConsistentExtra => {
            // Common pinned domain + per-platform extras the other never
            // contacts.
            a.contacted = vec![common.clone()];
            i.contacted = vec![common.clone()];
            a.pinned = vec![common.clone()];
            i.pinned = vec![common.clone()];
            if fp.len() > 1 {
                a.contacted.push(fp[1].clone());
                a.pinned.push(fp[1].clone());
            }
            if fp.len() > 2 {
                i.contacted.push(fp[2].clone());
                i.pinned.push(fp[2].clone());
            }
            a.synced_sdk_rolls = true;
            i.synced_sdk_rolls = true;
        }
        ConsistencyProfile::InconsistentOverlap => {
            // Overlap on `common`, but Android pins a domain iOS contacts
            // unpinned.
            a.suppress_sdk_pinning = true;
            i.suppress_sdk_pinning = true;
            a.contacted = fp.to_vec();
            i.contacted = fp.to_vec();
            a.pinned = vec![common.clone()];
            i.pinned = vec![common];
            if fp.len() > 1 {
                a.pinned.push(fp[1].clone());
            }
        }
        ConsistencyProfile::InconsistentOneSided => {
            // Both platforms pin, but with no common pinned domain: one
            // side's pinned domain appears *unpinned* on the other (the
            // one-sided rows of Figure 3).
            a.suppress_sdk_pinning = true;
            i.suppress_sdk_pinning = true;
            let flip = rng.chance(0.5);
            let (x, y) = if flip { (i, a) } else { (a, i) };
            x.contacted = vec![fp[0].clone()];
            x.pinned = vec![fp[0].clone()];
            let alt = fp.get(1).unwrap_or(&fp[0]).clone();
            y.contacted = vec![fp[0].clone(), alt.clone()];
            y.pinned = vec![alt.clone()];
            if alt == fp[0] {
                // Degenerate domain list: fall back to a pure contradiction.
                y.pinned = Vec::new();
                y.pins_first_party = false;
            }
        }
        ConsistencyProfile::Disjoint => {
            // Each platform pins a domain the other never contacts.
            a.suppress_sdk_pinning = true;
            i.suppress_sdk_pinning = true;
            a.contacted = vec![fp[0].clone()];
            a.pinned = vec![fp[0].clone()];
            let alt = fp.get(1).unwrap_or(&fp[0]).clone();
            if alt == fp[0] {
                // Not enough domains to be disjoint; degrade to one-sided.
                i.contacted = vec![];
                i.pinned = vec![];
                i.pins_first_party = false;
            } else {
                i.contacted = vec![alt.clone()];
                i.pinned = vec![alt];
            }
        }
    }
}

fn pick_sdks(
    rng: &mut SplitMix64,
    category: Category,
    tier_score: f64,
    cross_platform_product: bool,
) -> Vec<&'static str> {
    let registry = sdk::registry();
    let n = if tier_score < 0.10 {
        3 + rng.next_below(6) as usize // head: 3–8 SDKs
    } else if tier_score < 0.30 {
        1 + rng.next_below(4) as usize // mid: 1–4
    } else {
        rng.next_below(3) as usize // tail: 0–2
    };
    if n == 0 {
        return Vec::new();
    }
    let mut picked: Vec<&'static str> = Vec::new();
    // Category affinity: finance/shopping apps embed payment & fraud SDKs
    // far more often (that is *why* Table 4/5 put Finance on top).
    let boost = |s: &SdkSpec| -> u32 {
        use pinning_app::sdk::SdkKind;
        let b = match (category, s.kind) {
            (Category::Finance, SdkKind::Payment | SdkKind::FraudPrevention | SdkKind::Billing) => {
                5
            }
            (Category::Shopping, SdkKind::Payment) => 4,
            (Category::Social, SdkKind::SocialNetwork) => 3,
            (Category::Games, SdkKind::Advertising) => 3,
            (Category::Photography, SdkKind::Creative) => 4,
            _ => 1,
        };
        s.adoption_weight * b
    };
    let total: u32 = registry.iter().map(&boost).sum();
    for _ in 0..n * 3 {
        if picked.len() >= n {
            break;
        }
        let mut pick = rng.next_below(total as u64) as u32;
        for s in registry {
            let w = boost(s);
            if pick < w {
                // Mature cross-platform products standardize on SDKs that
                // exist on both platforms.
                let ok = !cross_platform_product
                    || (s.available_on(Platform::Android) && s.available_on(Platform::Ios));
                if ok && !picked.contains(&s.name) {
                    picked.push(s.name);
                }
                break;
            }
            pick -= w;
        }
    }
    picked
}

/// The flavours of hostile app the adversarial cohort cycles through.
///
/// Each flavour attacks a different decoder or screening layer; the study
/// must degrade every one of them as `MalformedInput` — never panic, never
/// fabricate a pinning verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum HostileKind {
    /// The server presents a 50-deep certificate chain.
    DeepChain,
    /// The chain revisits an intermediate (a cycle).
    Cycle,
    /// The chain is a self-issued certificate repeated back-to-back.
    SelfIssuedLoop,
    /// The leaf carries hundreds of SAN entries.
    GiantSan,
    /// The leaf stacks wildcard labels (`*.*.*.*.*.*`).
    AbsurdWildcard,
    /// The package ships a garbage-DER certificate asset.
    GarbageDerAsset,
    /// The package ships a `.pem` asset whose body is not valid PEM.
    BadPemAsset,
    /// The Android NSC file contains PEM text instead of XML.
    FakePemNsc,
}

impl HostileKind {
    /// All flavours, in planting order.
    pub const ALL: [HostileKind; 8] = [
        HostileKind::DeepChain,
        HostileKind::Cycle,
        HostileKind::SelfIssuedLoop,
        HostileKind::GiantSan,
        HostileKind::AbsurdWildcard,
        HostileKind::GarbageDerAsset,
        HostileKind::BadPemAsset,
        HostileKind::FakePemNsc,
    ];
}

/// Plants `config.adversarial_apps` hostile apps (outside the store
/// listings, so dataset sampling is untouched) and returns their indices
/// into `apps`.
pub(crate) fn plant_adversarial_apps(
    gen: &mut Generator<'_>,
    apps: &mut Vec<MobileApp>,
) -> Vec<usize> {
    let n = gen.config.adversarial_apps;
    let mut hostile = Vec::with_capacity(n);
    for k in 0..n {
        let kind = HostileKind::ALL[k % HostileKind::ALL.len()];
        let idx = apps.len();
        apps.push(build_hostile_app(gen, k, kind));
        hostile.push(idx);
    }
    hostile
}

fn hostile_chain(
    gen: &mut Generator<'_>,
    domain: &str,
    org: &str,
    kind: HostileKind,
) -> pinning_pki::CertificateChain {
    let mut rng = gen.rng.derive(&format!("srv-adv/{domain}"));
    let key = pinning_crypto::sig::KeyPair::generate(&mut rng);
    let inter_idx = (rng.next_below(gen.universe.n_intermediates() as u64)) as usize;
    let base =
        gen.universe
            .issue_server_chain_via(inter_idx, &[domain.to_string()], org, &key, 398);
    let certs = base.certs();
    let max_len = pinning_pki::Budget::STANDARD.max_chain_len;
    let max_names = pinning_pki::Budget::STANDARD.max_names;
    let mutated: Vec<Certificate> = match kind {
        HostileKind::DeepChain => {
            // ~50 distinct certificates: far past the chain-length budget.
            (0..(max_len * 3 + 2))
                .map(|i| {
                    let mut c = certs[0].clone();
                    c.tbs.serial = c.tbs.serial.wrapping_add(i as u64);
                    c.invalidate_derived();
                    c
                })
                .collect()
        }
        HostileKind::Cycle => {
            // leaf → inter → inter: the chain revisits its issuer.
            vec![certs[0].clone(), certs[1].clone(), certs[1].clone()]
        }
        HostileKind::SelfIssuedLoop => {
            let ss = gen
                .universe
                .issue_self_signed(org, &[domain.to_string()], 2, &mut rng);
            let c = ss.certs()[0].clone();
            vec![c.clone(), c]
        }
        HostileKind::GiantSan => {
            let mut c = certs[0].clone();
            c.tbs.san = (0..max_names * 8)
                .map(|i| format!("h{i}.{domain}"))
                .collect();
            c.tbs.san.push(domain.to_string());
            c.invalidate_derived();
            vec![c, certs[1].clone(), certs[2].clone()]
        }
        HostileKind::AbsurdWildcard => {
            let mut c = certs[0].clone();
            c.tbs.san = vec![format!("*.*.*.*.*.*.{domain}"), domain.to_string()];
            c.invalidate_derived();
            vec![c, certs[1].clone(), certs[2].clone()]
        }
        // Asset attackers serve their honest chain.
        HostileKind::GarbageDerAsset | HostileKind::BadPemAsset | HostileKind::FakePemNsc => {
            certs.to_vec()
        }
    };
    pinning_pki::CertificateChain::new(mutated)
}

fn build_hostile_app(gen: &mut Generator<'_>, k: usize, kind: HostileKind) -> MobileApp {
    use pinning_app::package::{AppFile, AppPackage};

    let key = format!("adv{k:04}");
    let domain = format!("api.{key}.example");
    let org = format!("Adversary{k} Ltd");
    let chain = hostile_chain(gen, &domain, &org, kind);
    gen.whois.record(&domain, &org);
    gen.network.register(pinning_netsim::OriginServer::modern(
        vec![domain.clone()],
        org.clone(),
        chain,
    ));

    let mut files = Vec::new();
    match kind {
        HostileKind::GarbageDerAsset => {
            // High tag byte + lying 32-bit length: never a valid TLV.
            let mut rng = gen.rng.derive(&format!("adv-der/{k}"));
            let mut garbage = vec![0xEEu8, 0xFF, 0xFF, 0xFF, 0xFF];
            garbage.extend((0..64).map(|_| rng.next_below(256) as u8));
            files.push(AppFile::binary("assets/pinned_ca.der", garbage));
        }
        HostileKind::BadPemAsset => {
            files.push(AppFile::text(
                "res/raw/bundled_ca_0.pem",
                "-----BEGIN CERTIFICATE-----\nnot base64 at all !!!\n-----END CERTIFICATE-----\n",
            ));
        }
        HostileKind::FakePemNsc => {
            files.push(AppFile::text(
                "res/xml/network_security_config.xml",
                "-----BEGIN CERTIFICATE-----\nAAAA\n-----END CERTIFICATE-----\n",
            ));
        }
        _ => {}
    }

    MobileApp {
        id: AppId::new(Platform::Android, format!("com.adversary.{key}")),
        product_key: key.clone(),
        name: format!("Adversary {k}"),
        developer_org: org,
        category: Category::Tools,
        popularity_rank: (gen.config.store_size + k + 1) as u32,
        sdk_names: Vec::new(),
        pin_rules: Vec::new(),
        first_party_domains: vec![domain.clone()],
        associated_domains: Vec::new(),
        uses_nsc: kind == HostileKind::FakePemNsc,
        behavior: AppBehavior {
            connections: vec![PlannedConnection::simple(domain, TlsLibrary::Conscrypt)],
        },
        package: AppPackage::new(Platform::Android, files),
    }
}

fn plant_self_signed_oddballs(products: &mut [Product]) {
    let mut planted_android = false;
    let mut planted_ios = false;
    for p in products.iter_mut() {
        if !planted_android {
            if let Some(plan) = p.android.as_mut() {
                if plan.pins_first_party && !p.cross {
                    let d = format!("legacy.{}", p.base_domain);
                    plan.self_signed_domain = Some(d.clone());
                    plan.pinned.push(d.clone());
                    plan.contacted.push(d);
                    planted_android = true;
                    continue;
                }
            }
        }
        if !planted_ios {
            if let Some(plan) = p.ios.as_mut() {
                if plan.pins_first_party && !p.cross {
                    let d = format!("legacy.{}", p.base_domain);
                    plan.self_signed_domain = Some(d.clone());
                    plan.pinned.push(d.clone());
                    plan.contacted.push(d);
                    planted_ios = true;
                }
            }
        }
        if planted_android && planted_ios {
            break;
        }
    }
}

/// Samples where a first-party pin's material is stored.
fn sample_fp_storage(
    gen: &Generator<'_>,
    rng: &mut SplitMix64,
    platform: Platform,
    target: PinTarget,
) -> PinStorage {
    if platform == Platform::Android && rng.chance(gen.config.nsc_share_android) {
        return PinStorage::NscPinSet;
    }
    if rng.chance(gen.config.obfuscated_pin_prob) {
        return PinStorage::ObfuscatedCode;
    }
    // Leaf pins overwhelmingly ship as SPKI strings (§5.3.3: 24 of 30);
    // raw certificate files are mostly CA material.
    let raw_share = if target == PinTarget::Leaf {
        0.12
    } else {
        0.40
    };
    let r = rng.next_f64();
    if r < raw_share {
        let fmt = match rng.next_below(5) {
            0 => CertAssetFormat::Pem,
            1 => CertAssetFormat::Der,
            2 => CertAssetFormat::Crt,
            3 => CertAssetFormat::Cer,
            _ => CertAssetFormat::CertExt,
        };
        PinStorage::RawCertAsset(fmt)
    } else if r < raw_share + 0.45 {
        PinStorage::SpkiStringInCode(PinAlgorithm::Sha256)
    } else if r < raw_share + 0.53 {
        PinStorage::SpkiStringInNativeLib(PinAlgorithm::Sha256)
    } else if r < raw_share + 0.57 {
        PinStorage::SpkiStringInCode(PinAlgorithm::Sha1)
    } else {
        PinStorage::SpkiStringInCode(PinAlgorithm::Sha256)
    }
}

/// Samples which chain position a first-party rule pins (§5.3.2 mix).
fn sample_pin_target(gen: &Generator<'_>, rng: &mut SplitMix64) -> PinTarget {
    let (r, i, l) = gen.config.pin_target_weights;
    let total = (r + i + l) as u64;
    let pick = rng.next_below(total) as u32;
    if pick < r {
        PinTarget::Root
    } else if pick < r + i {
        PinTarget::Intermediate
    } else {
        PinTarget::Leaf
    }
}

/// The TLS stack used for a *pinned* connection; the `CustomNative` share
/// calibrates the §4.3 circumvention rates (≈51.5% Android / ≈66.2% iOS
/// hookable).
fn pinned_conn_library(rng: &mut SplitMix64, platform: Platform) -> TlsLibrary {
    let r = rng.next_f64();
    match platform {
        Platform::Android => {
            if r < 0.52 {
                TlsLibrary::CustomNative
            } else if r < 0.84 {
                TlsLibrary::OkHttp
            } else if r < 0.96 {
                TlsLibrary::Conscrypt
            } else {
                TlsLibrary::TrustKit
            }
        }
        Platform::Ios => {
            if r < 0.37 {
                TlsLibrary::CustomNative
            } else if r < 0.80 {
                TlsLibrary::NsUrlSession
            } else if r < 0.92 {
                TlsLibrary::AfNetworking
            } else {
                TlsLibrary::TrustKit
            }
        }
    }
}

fn unpinned_conn_library(rng: &mut SplitMix64, platform: Platform) -> TlsLibrary {
    let r = rng.next_f64();
    match platform {
        Platform::Android => {
            if r < 0.5 {
                TlsLibrary::OkHttp
            } else if r < 0.9 {
                TlsLibrary::Conscrypt
            } else {
                TlsLibrary::Cronet
            }
        }
        Platform::Ios => {
            if r < 0.85 {
                TlsLibrary::NsUrlSession
            } else {
                TlsLibrary::AfNetworking
            }
        }
    }
}

/// Launch offset distribution calibrated to the §4.2.1 sleep-time sweep
/// (≈84% of handshakes inside 15 s, ≈96% inside 30 s).
fn sample_at_secs(rng: &mut SplitMix64) -> u32 {
    let r = rng.next_f64();
    if r < 0.84 {
        rng.next_below(15) as u32
    } else if r < 0.96 {
        15 + rng.next_below(15) as u32
    } else {
        30 + rng.next_below(30) as u32
    }
}

/// Builds one platform's app for a product.
pub(crate) fn build_app(
    gen: &mut Generator<'_>,
    p: &Product,
    pi: usize,
    platform: Platform,
) -> MobileApp {
    let mut rng = gen.rng.derive(&format!("appgen/{pi}/{platform}"));
    // A product-shared stream for decisions that must agree across
    // platforms (synced SDK activation).
    let mut shared_rng = gen.rng.derive(&format!("appgen-shared/{pi}"));

    let plan = match platform {
        Platform::Android => p.android.as_ref().expect("plan exists"),
        Platform::Ios => p.ios.as_ref().expect("plan exists"),
    };
    let id = match platform {
        Platform::Android => AppId::new(platform, format!("com.{}.app", p.key)),
        Platform::Ios => AppId::new(platform, format!("id9{pi:08}")),
    };

    let rates = gen.config.rates(platform);
    let weak_app = rng.chance(rates.weak_cipher_app);
    // Common-dataset Android quirk (Table 8, italic row): cross-platform
    // Android pinning code disables weak suites *less* often.
    let weak_pinned_prob = if p.cross && platform == Platform::Android {
        0.22
    } else {
        rates.weak_cipher_pinned
    };

    let mut pin_rules: Vec<DomainPinRule> = Vec::new();
    // One TLS stack per pin rule (apps route a pinned backend through one
    // client object, not a random stack per request).
    let mut rule_library: Vec<TlsLibrary> = Vec::new();
    let mut connections: Vec<PlannedConnection> = Vec::new();
    let mut rule_for_domain: HashMap<String, usize> = HashMap::new();

    // --- First-party pin rules ---
    for domain in &plan.pinned {
        let server = gen
            .network
            .resolve(domain)
            .expect("first-party servers registered before app build");
        let chain = &server.chain;
        let is_custom = plan.custom_pki_domain.as_deref() == Some(domain.as_str())
            || plan.self_signed_domain.as_deref() == Some(domain.as_str());
        let target = if chain.len() == 1 {
            PinTarget::Leaf // self-signed has only a leaf
        } else if is_custom {
            PinTarget::Root
        } else {
            sample_pin_target(gen, &mut rng)
        };
        let cert: &Certificate = match target {
            PinTarget::Leaf => chain.leaf().expect("non-empty chain"),
            PinTarget::Intermediate => chain
                .intermediates()
                .first()
                .unwrap_or_else(|| chain.top().expect("chain")),
            PinTarget::Root => chain.top().expect("non-empty chain"),
        };
        let storage = sample_fp_storage(gen, &mut rng, platform, target);
        // §5.3.3: most leaf pins commit to the key (survive renewals);
        // raw-cert leaf pins usually compare keys too.
        let mut rule = match storage {
            PinStorage::RawCertAsset(fmt) => DomainPinRule::raw_cert(
                domain.clone(),
                cert,
                target,
                fmt,
                PinSource::FirstParty,
                rng.chance(0.8),
            ),
            _ => {
                let alg = match storage {
                    PinStorage::SpkiStringInCode(a) | PinStorage::SpkiStringInNativeLib(a) => a,
                    _ => PinAlgorithm::Sha256,
                };
                DomainPinRule::spki(
                    domain.clone(),
                    cert,
                    target,
                    alg,
                    storage,
                    PinSource::FirstParty,
                )
            }
        };
        if is_custom {
            rule = rule.with_custom_pki();
        }
        rule_for_domain.insert(domain.clone(), pin_rules.len());
        pin_rules.push(rule);
        rule_library.push(pinned_conn_library(&mut rng, platform));
    }

    // --- SDK rules + SDK connections ---
    let mut sdk_names_final = Vec::new();
    for name in &p.sdk_names {
        let Some(spec) = sdk::by_name(name) else {
            continue;
        };
        if !spec.available_on(platform) {
            continue;
        }
        sdk_names_final.push(name.to_string());
        let pinning = spec.pinning_on(platform);
        if let Some(pinning) = pinning {
            let domain = spec.domains[0];
            let server = gen.network.resolve(domain).expect("SDK servers registered");
            let chain = &server.chain;
            let cert = match pinning.target {
                PinTarget::Leaf => chain.leaf().expect("chain"),
                PinTarget::Intermediate => chain
                    .intermediates()
                    .first()
                    .unwrap_or_else(|| chain.top().expect("chain")),
                PinTarget::Root => chain.top().expect("chain"),
            };
            let mut rule = if pinning.ships_raw_cert {
                DomainPinRule::raw_cert(
                    domain,
                    cert,
                    pinning.target,
                    CertAssetFormat::Pem,
                    PinSource::Sdk(spec.name.to_string()),
                    true,
                )
            } else {
                DomainPinRule::spki(
                    domain,
                    cert,
                    pinning.target,
                    pinning.alg,
                    PinStorage::SpkiStringInCode(pinning.alg),
                    PinSource::Sdk(spec.name.to_string()),
                )
            };
            // Activation roll: synced across platforms for products whose
            // consistency profile requires it; suppressed entirely when the
            // profile must stay first-party-defined.
            let roll_rng = if plan.synced_sdk_rolls {
                &mut shared_rng
            } else {
                &mut rng
            };
            if plan.suppress_sdk_pinning || !roll_rng.chance(pinning.trigger_prob) {
                rule = rule.dead_code();
            }
            rule_for_domain.insert(domain.to_string(), pin_rules.len());
            pin_rules.push(rule);
            rule_library.push(spec.tls_on(platform));
        }
        // SDK traffic.
        for domain in spec.domains {
            let mut conn = PlannedConnection::simple(*domain, spec.tls_on(platform));
            conn.sends_sni = !rng.chance(0.01);
            conn.at_secs = sample_at_secs(&mut rng);
            conn.extra_bytes = 200 + rng.next_below(800) as usize;
            conn.redundant = rng.chance(gen.config.redundant_conn_prob);
            if let Some(&ri) = rule_for_domain.get(*domain) {
                conn.pin_rule = Some(ri);
                conn.library = rule_library[ri];
                conn.offers_weak_ciphers = rng.chance(weak_pinned_prob);
                conn.redundant = false;
            } else {
                conn.offers_weak_ciphers = weak_app && rng.chance(0.8);
            }
            // Analytics/ads SDKs carry the advertising id (more often than
            // first-party traffic when unpinned).
            let adid_p = if conn.pin_rule.is_some() {
                rates.adid_pinned
            } else {
                gen.config.adid_prob.0 * 1.6
            };
            if rng.chance(adid_p) {
                conn.pii.push(PiiType::AdvertisingId);
            }
            connections.push(conn);
        }
    }

    // --- First-party connections ---
    for domain in &plan.contacted {
        let n_conns = 1 + rng.next_below(2) as usize;
        for c in 0..n_conns {
            let rule_idx = rule_for_domain.get(domain).copied();
            let mut conn = PlannedConnection::simple(
                domain.clone(),
                unpinned_conn_library(&mut rng, platform),
            );
            conn.sends_sni = !rng.chance(0.01);
            conn.at_secs = if c == 0 {
                rng.next_below(8) as u32
            } else {
                sample_at_secs(&mut rng)
            };
            conn.extra_bytes = 300 + rng.next_below(1500) as usize;
            conn.pin_rule = rule_idx;
            if let Some(ri) = rule_idx {
                conn.library = rule_library[ri];
                conn.offers_weak_ciphers = rng.chance(weak_pinned_prob);
                conn.redundant = false;
            } else {
                conn.offers_weak_ciphers = weak_app && rng.chance(0.8);
                conn.redundant = c > 0 && rng.chance(gen.config.redundant_conn_prob);
            }
            let adid_p = if rule_idx.is_some() {
                rates.adid_pinned
            } else {
                gen.config.adid_prob.0
            };
            if rng.chance(adid_p) {
                conn.pii.push(PiiType::AdvertisingId);
            }
            if rng.chance(if rule_idx.is_some() { 0.004 } else { 0.012 }) {
                conn.pii.push(PiiType::Email);
            }
            if rng.chance(if rule_idx.is_some() { 0.0015 } else { 0.010 }) {
                conn.pii.push(PiiType::State);
            }
            if rule_idx.is_none() {
                if rng.chance(0.006) {
                    conn.pii.push(PiiType::City);
                }
                if rng.chance(0.0008) {
                    conn.pii.push(PiiType::LatLon);
                }
            }
            connections.push(conn);
        }
    }

    // --- Noise connections + padding toward the mean ---
    let n_noise = 2 + rng.next_below(3) as usize;
    for k in 0..n_noise {
        let d = NOISE_DOMAINS[(rng.next_below(NOISE_DOMAINS.len() as u64)) as usize];
        let mut conn = PlannedConnection::simple(d, unpinned_conn_library(&mut rng, platform));
        conn.at_secs = sample_at_secs(&mut rng);
        conn.redundant = k > 0 && rng.chance(gen.config.redundant_conn_prob);
        conn.offers_weak_ciphers = weak_app && rng.chance(0.8);
        if rng.chance(gen.config.adid_prob.0) {
            conn.pii.push(PiiType::AdvertisingId);
        }
        connections.push(conn);
    }
    let target = gen.config.mean_connections.saturating_sub(2) + rng.next_below(5) as usize;
    while connections.len() < target {
        let template = connections[rng.next_below(connections.len() as u64) as usize].clone();
        let mut conn = template;
        conn.at_secs = sample_at_secs(&mut rng);
        conn.redundant = rng.chance(gen.config.redundant_conn_prob) && conn.pin_rule.is_none();
        connections.push(conn);
    }

    // --- Interaction-gated connections (§4.2.1 / §6 future work) ---
    // Random-UI taps mostly re-contact domains already hit at launch (the
    // paper measured "no significant change in the number of domains
    // contacted"); logging in reaches a first-party domain.
    if !connections.is_empty() && rng.chance(0.35) {
        let extra = 1 + rng.next_below(3) as usize;
        for _ in 0..extra {
            let template = connections[rng.next_below(connections.len() as u64) as usize].clone();
            let mut conn = template;
            conn.at_secs = sample_at_secs(&mut rng);
            conn.requires_interaction = Interaction::RandomUi;
            connections.push(conn);
        }
    }
    if rng.chance(0.15) {
        let domain = plan.contacted.first().unwrap_or(&p.fp_domains[0]).clone();
        let rule_idx = rule_for_domain.get(&domain).copied();
        let mut conn = PlannedConnection::simple(domain, unpinned_conn_library(&mut rng, platform));
        conn.requires_interaction = Interaction::Login;
        conn.pin_rule = rule_idx;
        if let Some(ri) = rule_idx {
            conn.library = rule_library[ri];
        }
        conn.pii = vec![PiiType::Email];
        conn.at_secs = 3 + rng.next_below(20) as u32;
        connections.push(conn);
    }

    // --- Associated domains (iOS) ---
    let associated_domains =
        if platform == Platform::Ios && rng.chance(gen.config.associated_domain_prob) {
            let mut doms: Vec<String> = p.fp_domains.clone();
            let extra = rng.next_below(5) as usize;
            for e in 0..extra {
                let d = format!("link{e}.{}", p.base_domain);
                if !gen.network.has_host(&d) {
                    gen.register_public_server(vec![d.clone()], &p.org);
                }
                doms.push(d);
            }
            doms.truncate(1 + rng.next_below(8) as usize);
            doms
        } else {
            Vec::new()
        };

    // --- Decoy certificates (static-analysis noise) ---
    let rank_score = match platform {
        Platform::Android => p.rank_score_android,
        Platform::Ios => p.rank_score_ios,
    };
    let mut decoy_prob = if rank_score < 0.12 {
        rates.decoy_cert_popular
    } else if rank_score < 0.35 {
        (rates.decoy_cert_popular + rates.decoy_cert_tail) / 2.0
    } else {
        rates.decoy_cert_tail
    };
    if p.cross {
        // Table 3's asymmetry: Common-Android packages carry *more*
        // non-pinning certificate baggage than the charts, Common-iOS less.
        decoy_prob *= match platform {
            Platform::Android => 2.2,
            Platform::Ios => 0.85,
        };
    }
    let decoy_certs: Vec<Certificate> = if rng.chance(decoy_prob) {
        let n = 1 + rng.next_below(3) as usize;
        let roots = gen.universe.public_roots();
        (0..n)
            .map(|_| {
                roots[rng.next_below(roots.len() as u64) as usize]
                    .cert
                    .clone()
            })
            .collect()
    } else {
        Vec::new()
    };

    // --- Package build ---
    let sdk_specs: Vec<&'static SdkSpec> = sdk_names_final
        .iter()
        .filter_map(|n| sdk::by_name(n))
        .collect();
    let nsc_misconfig = platform == Platform::Android && rng.chance(gen.config.nsc_misconfig_prob);
    let uses_nsc = nsc_misconfig || pin_rules.iter().any(|r| r.storage == PinStorage::NscPinSet);
    let spec = BuildSpec {
        id: &id,
        app_name: &p.name,
        sdks: &sdk_specs,
        pin_rules: &pin_rules,
        decoy_certs: &decoy_certs,
        nsc_misconfig_override_pins: nsc_misconfig,
        associated_domains: &associated_domains,
        ios_encryption_seed: (platform == Platform::Ios).then_some(gen.config.ios_encryption_seed),
    };
    let mut pkg_rng = rng.derive("pkg");
    let package = build_package(&spec, &mut pkg_rng);

    MobileApp {
        id,
        product_key: p.key.clone(),
        name: p.name.clone(),
        developer_org: p.org.clone(),
        category: p.category,
        popularity_rank: 0, // assigned after listing sort
        sdk_names: sdk_names_final,
        pin_rules,
        first_party_domains: p.fp_domains.clone(),
        associated_domains,
        uses_nsc,
        behavior: AppBehavior { connections },
        package,
    }
}

/// Silences the unused-import lint for `Interaction`, which is part of the
/// public behaviour API exercised elsewhere.
const _: fn(Interaction) -> bool = |i| matches!(i, Interaction::None);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::WorldConfig;
    use std::cell::Cell;

    thread_local! {
        /// Rank scores [`rank_listing`] read on this thread, counted in
        /// test builds only.
        pub(super) static SCORE_READS: Cell<usize> = const { Cell::new(0) };
    }

    /// The listing sort before scores were recorded at build: every
    /// comparison searches `products` for both apps' products, O(n² log n)
    /// in all. The reference [`rank_listing`] must match index for index.
    fn reference_listing(
        apps: &[MobileApp],
        products: &[Product],
        platform: Platform,
    ) -> Vec<usize> {
        let mut listing: Vec<usize> = apps
            .iter()
            .enumerate()
            .filter(|(_, a)| a.id.platform == platform)
            .map(|(i, _)| i)
            .collect();
        let score_of = |i: usize| {
            let key = &apps[i].product_key;
            let p = products
                .iter()
                .find(|p| &p.key == key)
                .expect("product exists");
            match platform {
                Platform::Android => p.rank_score_android,
                Platform::Ios => p.rank_score_ios,
            }
        };
        listing.sort_by(|&a, &b| {
            score_of(a)
                .partial_cmp(&score_of(b))
                .expect("scores are finite")
        });
        listing
    }

    #[test]
    fn listings_match_the_product_search_reference() {
        let configs = [
            WorldConfig::tiny(1),
            WorldConfig::tiny(2),
            WorldConfig::tiny(0x77),
            WorldConfig::bench(101),
            WorldConfig::bench(90017),
        ];
        for config in &configs {
            let mut gen = Generator::for_world(config);
            let Catalog {
                products,
                mut apps,
                scores,
                ..
            } = build_catalog(&mut gen);
            let reference = [Platform::Android, Platform::Ios]
                .map(|platform| reference_listing(&apps, &products, platform));

            let (android, ios) = list_apps(&mut apps, &scores);
            assert_eq!(android, reference[0], "seed {}", config.seed);
            assert_eq!(ios, reference[1], "seed {}", config.seed);
            for listing in &reference {
                for (rank, &i) in listing.iter().enumerate() {
                    assert_eq!(apps[i].popularity_rank as usize, rank + 1);
                }
            }
            assert_eq!(android.len() + ios.len(), apps.len());
        }
    }

    #[test]
    fn ranking_reads_each_score_once() {
        let config = WorldConfig::tiny(3);
        let mut gen = Generator::for_world(&config);
        let Catalog { apps, scores, .. } = build_catalog(&mut gen);
        for platform in [Platform::Android, Platform::Ios] {
            let on_platform = apps.iter().filter(|a| a.id.platform == platform).count();
            let before = SCORE_READS.with(Cell::get);
            let listing = rank_listing(&apps, &scores, platform);
            let reads = SCORE_READS.with(Cell::get) - before;
            assert_eq!(listing.len(), on_platform);
            assert!(
                reads <= on_platform,
                "{platform:?}: {reads} reads for {on_platform} apps"
            );
        }
    }

    #[test]
    fn profile_sampling_covers_all_variants() {
        let mut rng = SplitMix64::new(1);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..500 {
            seen.insert(sample_profile(&mut rng));
        }
        assert_eq!(seen.len(), 5);
    }

    #[test]
    fn at_secs_distribution_shape() {
        let mut rng = SplitMix64::new(2);
        let samples: Vec<u32> = (0..10_000).map(|_| sample_at_secs(&mut rng)).collect();
        let within15 = samples.iter().filter(|&&s| s < 15).count() as f64 / 10_000.0;
        let within30 = samples.iter().filter(|&&s| s < 30).count() as f64 / 10_000.0;
        assert!((0.80..0.88).contains(&within15), "{within15}");
        assert!((0.93..0.99).contains(&within30), "{within30}");
        assert!(samples.iter().all(|&s| s < 60));
    }

    #[test]
    fn weighted_category_respects_table() {
        let mut rng = SplitMix64::new(3);
        let games = (0..2000)
            .filter(|_| weighted_category(HEAD_CATEGORY_WEIGHTS, &mut rng) == Category::Games)
            .count();
        // Games weight 34 of ~100 total.
        assert!((500..900).contains(&games), "{games}");
    }

    #[test]
    fn pinned_library_mix_hookability() {
        let mut rng = SplitMix64::new(4);
        let n = 10_000;
        let hookable_android = (0..n)
            .filter(|_| pinned_conn_library(&mut rng, Platform::Android).frida_hookable())
            .count() as f64
            / n as f64;
        let hookable_ios = (0..n)
            .filter(|_| pinned_conn_library(&mut rng, Platform::Ios).frida_hookable())
            .count() as f64
            / n as f64;
        // Shares are calibrated to §4.3's destination-level circumvention
        // rates (≈51.5% Android, ≈66.2% iOS).
        assert!(
            (0.44..0.54).contains(&hookable_android),
            "{hookable_android}"
        );
        assert!((0.58..0.68).contains(&hookable_ios), "{hookable_ios}");
    }
}
