//! The auction application (§6).
//!
//! Sellers list items with a reserve price and a minimum increment; bidders
//! raise the best bid; the seller closes the auction. Bidding is the
//! archetypal conflicting operation under GUESSTIMATE: two bidders can both
//! see their bid succeed on their guesstimated state, and the commit order
//! picks the one that stands — the loser's completion routine fires with
//! `false` so the UI can prompt for a higher bid.

use std::collections::BTreeMap;

use guesstimate_core::codec::Args;
use guesstimate_core::{
    canonical, Canonical, Footprint, GState, ObjectId, OpRegistry, SharedOp, Value,
};
use guesstimate_spec::{MethodContract, MethodSpec, SpecSuite};

/// One listed item.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
struct Item {
    seller: String,
    reserve: i64,
    increment: i64,
    best: Option<(String, i64)>,
    open: bool,
}

/// The shared auction state.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct Auction {
    items: BTreeMap<String, Item>,
}

impl Auction {
    /// A fresh, empty auction house.
    pub fn new() -> Self {
        Auction::default()
    }

    /// Listed item names, in order.
    pub fn item_names(&self) -> Vec<String> {
        self.items.keys().cloned().collect()
    }

    /// True if the item exists and is open for bids.
    pub fn is_open(&self, item: &str) -> bool {
        self.items.get(item).is_some_and(|i| i.open)
    }

    /// The current best `(bidder, amount)` on `item`.
    pub fn best_bid(&self, item: &str) -> Option<(String, i64)> {
        self.items.get(item).and_then(|i| i.best.clone())
    }

    /// The winner of a **closed** item, if any bid met the reserve.
    pub fn winner(&self, item: &str) -> Option<(String, i64)> {
        self.items
            .get(item)
            .filter(|i| !i.open)
            .and_then(|i| i.best.clone())
    }

    /// The minimum acceptable next bid on `item`, if it is open and a bid
    /// above the best one fits in an `i64`.
    pub fn min_next_bid(&self, item: &str) -> Option<i64> {
        self.items
            .get(item)
            .filter(|i| i.open)
            .and_then(Item::min_next_bid)
    }

    fn list_item(&mut self, name: &str, seller: &str, reserve: i64, increment: i64) -> bool {
        if name.is_empty()
            || seller.is_empty()
            || reserve < 0
            || increment <= 0
            || self.items.contains_key(name)
        {
            return false;
        }
        self.items.insert(
            name.to_owned(),
            Item {
                seller: seller.to_owned(),
                reserve,
                increment,
                best: None,
                open: true,
            },
        );
        true
    }

    fn bid(&mut self, item: &str, bidder: &str, amount: i64) -> bool {
        if bidder.is_empty() {
            return false;
        }
        let Some(it) = self.items.get_mut(item) else {
            return false;
        };
        if !it.open || it.seller == bidder {
            return false;
        }
        // No minimum: no higher bid exists.
        if it.min_next_bid().is_none_or(|min| amount < min) {
            return false;
        }
        it.best = Some((bidder.to_owned(), amount));
        true
    }

    fn close(&mut self, item: &str, seller: &str) -> bool {
        match self.items.get_mut(item) {
            Some(it) if it.open && it.seller == seller => {
                it.open = false;
                true
            }
            _ => false,
        }
    }
}

impl Item {
    /// The reserve, or the best bid plus the increment; `None` when that
    /// overflows.
    fn min_next_bid(&self) -> Option<i64> {
        match &self.best {
            Some((_, best)) => best.checked_add(self.increment),
            None => Some(self.reserve),
        }
    }
}

canonical!(struct Item { seller, reserve, increment, best, open });
canonical!(impl GState for Auction as "Auction" (items));

/// Typed operation constructors.
pub mod ops {
    use super::*;

    guesstimate_core::methods! {
        Auction;
        /// List an item with a reserve price and minimum increment.
        fn list_item(
            name: &str = ["chair", "lamp"],
            seller: &str = ["seller"],
            reserve: i64 = [10],
            increment: i64 = [1],
        ) => list_item_footprint(name, seller, reserve, increment);
        /// Place a bid.
        fn bid(item: &str = ["lamp"], bidder: &str = ["ann", "bob", "seller"], amount: i64 = [5, 10, 15])
            => bid_footprint(item, bidder), sampled;
        /// Close an auction (seller only).
        fn close(item: &str = ["lamp", "ghost"], seller: &str = ["seller", "ann"])
            => close_footprint(item), sampled;
    }

    /// A limit bid ladder: try `amount`, else `amount + step`, …, up to
    /// `limit` (or the last rung an `i64` holds) — an OrElse pattern that
    /// survives losing a race by one increment. Returns `None` when
    /// `amount > limit`.
    pub fn bid_up_to(
        obj: ObjectId,
        item: &str,
        bidder: &str,
        amount: i64,
        step: i64,
        limit: i64,
    ) -> Option<SharedOp> {
        let mut rungs = Vec::new();
        let mut a = Some(amount);
        while let Some(x) = a.filter(|&x| x <= limit) {
            rungs.push(bid(obj, item, bidder, x));
            a = x.checked_add(step.max(1));
        }
        SharedOp::first_of(rungs)
    }
}

fn list_item_footprint(name: &str, seller: &str, reserve: i64, increment: i64) -> Footprint {
    if name.is_empty() || seller.is_empty() || reserve < 0 || increment <= 0 {
        return Footprint::new();
    }
    // The snapshot is a map keyed directly by item name.
    Footprint::new().reads([name]).writes([name])
}

/// No item has an empty name (`list_item` refuses one), so a bid or close
/// on `""` fails without touching state — and its key would render as the
/// root path.
fn bid_footprint(item: &str, bidder: &str) -> Footprint {
    if item.is_empty() || bidder.is_empty() {
        return Footprint::new();
    }
    Footprint::new()
        .reads([item])
        .writes([format!("{item}/best")])
}

fn close_footprint(item: &str) -> Footprint {
    if item.is_empty() {
        return Footprint::new();
    }
    Footprint::new()
        .reads([item])
        .writes([format!("{item}/open")])
}

/// Registers the auction type and operations.
pub fn register(registry: &mut OpRegistry) {
    ops::register_methods(registry);
}

fn invariant(v: &Value) -> bool {
    let Ok(a) = Auction::from_value(v) else {
        return false;
    };
    a.items.values().all(|it| {
        // The best bid meets the reserve and never comes from the seller.
        it.increment > 0
            && it.reserve >= 0
            && !it.seller.is_empty()
            && it
                .best
                .as_ref()
                .is_none_or(|(b, amt)| *amt >= it.reserve && *b != it.seller)
    })
}

/// Specification suite for the verifier table.
pub fn spec_suite() -> SpecSuite {
    let best_amount = |v: &Value, item: &str| -> Option<i64> {
        v.as_map()?
            .get(item)?
            .field("best")?
            .as_list()?
            .get(1)?
            .as_i64()
    };
    let open =
        |v: &Value, item: &str| -> Option<bool> { v.as_map()?.get(item)?.field("open")?.as_bool() };
    let bid = MethodSpec::new(
        "bid",
        MethodContract::new()
            .with_post(move |pre, post, a| {
                // φ_bid: on success our bid stands and strictly improves on
                // the previous best.
                let Some((item, bidder, amount)) = <(&str, &str, i64)>::decode(a) else {
                    return false;
                };
                let standing = post
                    .as_map()
                    .and_then(|m| m.get(item))
                    .and_then(|i| i.field("best"))
                    .and_then(Value::as_list);
                standing.is_some_and(|l| {
                    l.first().and_then(Value::as_str) == Some(bidder)
                        && l.get(1).and_then(Value::as_i64) == Some(amount)
                        && best_amount(pre, item).is_none_or(|p| amount > p)
                })
            })
            .with_assertion("bid-strictly-improves", move |c| {
                !c.result
                    || <&str>::decode(&c.args).is_some_and(|item| {
                        match (best_amount(&c.pre, item), best_amount(&c.post, item)) {
                            (Some(b), Some(a)) => a > b,
                            (None, Some(_)) => true,
                            _ => false,
                        }
                    })
            })
            .with_assertion("closed-items-are-frozen", move |c| {
                <&str>::decode(&c.args).is_some_and(|item| open(&c.pre, item) != Some(false))
                    || c.pre == c.post
            })
            .with_assertion("bid-frames-other-items", |c| {
                // Every item but the target is unchanged (all of them,
                // when the arguments name no item).
                let target = <&str>::decode(&c.args);
                let (Some(mp), Some(mq)) = (c.pre.as_map(), c.post.as_map()) else {
                    return false;
                };
                mp.len() == mq.len()
                    && mp
                        .iter()
                        .all(|(k, v)| Some(k.as_str()) == target || mq.get(k) == Some(v))
            }),
    );

    let close = MethodSpec::new(
        "close",
        MethodContract::new()
            .with_post(move |_pre, post, a| {
                <&str>::decode(a).is_some_and(|item| open(post, item) == Some(false))
            })
            .with_assertion("close-preserves-best-bid", |c| {
                let Some(item) = <&str>::decode(&c.args) else {
                    return c.pre == c.post; // names no item: changes nothing
                };
                let best = |v: &Value| {
                    v.as_map()
                        .and_then(|m| m.get(item))
                        .and_then(|i| i.field("best").cloned())
                };
                best(&c.pre) == best(&c.post)
            }),
    );

    let list_item = MethodSpec::new(
        "list_item",
        MethodContract::new()
            .with_guard("negative-reserve-fails", |a| {
                <(&str, &str, i64, i64)>::decode(a).is_some_and(|(_, _, r, _)| r >= 0)
            })
            .with_guard("nonpositive-increment-fails", |a| {
                <(&str, &str, i64, i64)>::decode(a).is_some_and(|(.., i)| i > 0)
            })
            .with_post(move |_pre, post, a| {
                <&str>::decode(a).is_some_and(|item| open(post, item) == Some(true))
            }),
    );

    SpecSuite::new("Auction")
        .with_invariant("reserve-increment-seller", invariant)
        .with_method(bid)
        .with_method(close)
        .with_method(list_item)
}

fn states() -> Vec<Value> {
    let o = crate::SCRATCH;
    crate::states_by_ops(
        &APP,
        &[
            ops::list_item(o, "lamp", "seller", 10, 5),
            ops::bid(o, "lamp", "ann", 10),
            ops::list_item(o, "sofa", "bob", 0, 1),
            ops::close(o, "sofa", "bob"),
        ],
    )
}

/// This application's row of [`crate::all`].
pub const APP: crate::App = crate::App {
    type_name: Auction::TYPE_NAME,
    register,
    spec_suite,
    states,
};

#[cfg(test)]
mod tests {
    use super::*;

    fn house() -> Auction {
        let mut a = Auction::new();
        assert!(a.list_item("lamp", "seller", 10, 5));
        a
    }

    #[test]
    fn listing_validates() {
        let mut a = house();
        assert!(!a.list_item("lamp", "x", 1, 1), "duplicate");
        assert!(!a.list_item("", "x", 1, 1));
        assert!(!a.list_item("y", "", 1, 1));
        assert!(!a.list_item("y", "x", -1, 1));
        assert!(!a.list_item("y", "x", 1, 0));
        assert_eq!(a.item_names(), vec!["lamp"]);
        assert!(a.is_open("lamp"));
    }

    #[test]
    fn bids_respect_reserve_and_increment() {
        let mut a = house();
        assert_eq!(a.min_next_bid("lamp"), Some(10));
        assert!(!a.bid("lamp", "ann", 9), "below reserve");
        assert!(a.bid("lamp", "ann", 10));
        assert_eq!(a.min_next_bid("lamp"), Some(15));
        assert!(!a.bid("lamp", "bob", 14), "below increment");
        assert!(a.bid("lamp", "bob", 15));
        assert_eq!(a.best_bid("lamp"), Some(("bob".into(), 15)));
    }

    #[test]
    fn seller_cannot_bid_and_close_is_seller_only() {
        let mut a = house();
        assert!(!a.bid("lamp", "seller", 100));
        assert!(!a.close("lamp", "ann"));
        assert!(a.bid("lamp", "ann", 10));
        assert!(a.close("lamp", "seller"));
        assert!(!a.close("lamp", "seller"), "already closed");
        assert!(!a.bid("lamp", "bob", 100), "closed");
        assert_eq!(a.winner("lamp"), Some(("ann".into(), 10)));
    }

    #[test]
    fn winner_is_none_while_open_or_without_bids() {
        let mut a = house();
        assert_eq!(a.winner("lamp"), None, "still open");
        a.close("lamp", "seller");
        assert_eq!(a.winner("lamp"), None, "no bids met the reserve");
        assert_eq!(a.min_next_bid("lamp"), None, "closed");
    }

    #[test]
    fn bid_rejects_unknown_item_and_anonymous() {
        let mut a = house();
        assert!(!a.bid("ghost", "ann", 100));
        assert!(!a.bid("lamp", "", 100));
    }

    #[test]
    fn a_best_bid_at_i64_max_admits_no_higher_bid() {
        let mut a = Auction::new();
        assert!(a.list_item("lamp", "seller", 0, 1));
        assert!(a.bid("lamp", "ann", i64::MAX));
        let before = a.clone();
        assert!(!a.bid("lamp", "bob", 5), "no bid above i64::MAX exists");
        assert!(!a.bid("lamp", "bob", i64::MAX));
        assert_eq!(a, before, "a failed bid changes nothing");
        assert_eq!(a.min_next_bid("lamp"), None);
        assert_eq!(a.best_bid("lamp"), Some(("ann".into(), i64::MAX)));
    }

    #[test]
    fn a_ladder_stops_at_the_last_rung_an_i64_holds() {
        let obj = ObjectId::new(guesstimate_core::MachineId::new(0), 0);
        let ladder = ops::bid_up_to(obj, "lamp", "ann", i64::MAX - 5, 5, i64::MAX).unwrap();
        assert_eq!(ladder.primitive_count(), 2, "MAX - 5 and MAX");
    }

    #[test]
    fn bid_ladder_survives_a_lost_race() {
        use guesstimate_core::{execute, MachineId, ObjectStore};
        let obj = ObjectId::new(MachineId::new(0), 0);
        let mut reg = OpRegistry::new();
        register(&mut reg);
        let mut store = ObjectStore::new();
        store.insert(obj, Box::new(house()));
        // bob already bid 10; ann's ladder 10,15,20 falls through to 15.
        execute(&ops::bid(obj, "lamp", "bob", 10), &mut store, &reg).unwrap();
        let ladder = ops::bid_up_to(obj, "lamp", "ann", 10, 5, 20).unwrap();
        assert!(execute(&ladder, &mut store, &reg).unwrap().is_success());
        assert_eq!(
            store.get_as::<Auction>(obj).unwrap().best_bid("lamp"),
            Some(("ann".into(), 15))
        );
        assert!(ops::bid_up_to(obj, "lamp", "ann", 30, 5, 20).is_none());
    }

    #[test]
    fn invariant_checks() {
        let mut a = house();
        a.bid("lamp", "ann", 12);
        assert!(invariant(&GState::snapshot(&a)));
        assert!(!invariant(&Value::Unit));
    }

    #[test]
    fn spec_suite_verifies_cleanly() {
        use guesstimate_spec::{verify_suite, CaseSpace};
        let suite = spec_suite();
        assert!(suite.assertion_count() >= 13);
        let mut reg = OpRegistry::new();
        register(&mut reg);
        let mut a = house();
        a.bid("lamp", "ann", 12);
        let mut closed = a.clone();
        closed.close("lamp", "seller");
        let states = vec![
            GState::snapshot(&Auction::new()),
            GState::snapshot(&house()),
            GState::snapshot(&a),
            GState::snapshot(&closed),
        ];
        let report = verify_suite(&reg, &suite, &CaseSpace::sampled(states, 100_000));
        assert_eq!(report.refuted(), 0);
        assert!(report.verified() >= 2, "SI guards verify");
    }
}
