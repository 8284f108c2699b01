//! The small twitter-like application (§6).
//!
//! Users register, follow each other and post short messages; a timeline is
//! a *local read* over the guesstimated state (posts by the user and
//! everyone they follow, newest first). Posting is conflict-free by design
//! — like the message board, only membership operations (duplicate
//! registration, redundant follow) can fail.
//!
//! `heart` is the blind applause counter: it bumps a per-handle tally
//! without consulting users, follows, or posts, so it commutes — in state
//! and result — with every method including itself. The effect analysis
//! classifies it a **universal commuter**, making it eligible for the
//! runtime's hybrid async commit path (`MachineConfig::async_commit`).

use std::collections::{BTreeMap, BTreeSet};

use guesstimate_core::codec::Args;
use guesstimate_core::{args, canonical, Canonical, Footprint, GState, OpRegistry, Value};
use guesstimate_spec::{MethodContract, MethodSpec, SpecSuite};

/// One post, tagged with its global commit sequence number.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BlogPost {
    /// Author handle.
    pub author: String,
    /// Body text.
    pub text: String,
    /// Position in the global post order.
    pub seq: u64,
}

/// The shared microblog state.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct MicroBlog {
    users: BTreeSet<String>,
    follows: BTreeMap<String, BTreeSet<String>>,
    posts: Vec<BlogPost>,
    /// Blind heart tallies per handle. Deliberately outside the
    /// referential-integrity invariant: hearts may land before the handle
    /// registers (or never does) — any existence precondition would order
    /// `heart` against `register` and break its universal commutation.
    hearts: BTreeMap<String, u64>,
}

impl MicroBlog {
    /// A fresh, empty service.
    pub fn new() -> Self {
        MicroBlog::default()
    }

    /// True if `user` is registered.
    pub fn has_user(&self, user: &str) -> bool {
        self.users.contains(user)
    }

    /// Number of registered users.
    pub fn user_count(&self) -> usize {
        self.users.len()
    }

    /// All posts, oldest first.
    pub fn posts(&self) -> &[BlogPost] {
        &self.posts
    }

    /// True if `follower` follows `followee`.
    pub fn follows(&self, follower: &str, followee: &str) -> bool {
        self.follows
            .get(follower)
            .is_some_and(|s| s.contains(followee))
    }

    /// The timeline of `user`: own posts plus posts by followees, newest
    /// first. A local read (§2's `BeginRead`/`EndRead` pattern).
    pub fn timeline(&self, user: &str) -> Vec<&BlogPost> {
        let empty = BTreeSet::new();
        let followed = self.follows.get(user).unwrap_or(&empty);
        let mut out: Vec<&BlogPost> = self
            .posts
            .iter()
            .filter(|p| p.author == user || followed.contains(&p.author))
            .collect();
        out.reverse();
        out
    }

    /// The heart tally for a handle (0 when never hearted).
    pub fn hearts(&self, handle: &str) -> u64 {
        self.hearts.get(handle).copied().unwrap_or(0)
    }

    /// Total hearts across all handles.
    pub fn heart_count(&self) -> u64 {
        self.hearts.values().sum()
    }

    fn heart(&mut self, handle: &str) -> bool {
        if handle.is_empty() {
            return false;
        }
        *self.hearts.entry(handle.to_owned()).or_insert(0) += 1;
        true
    }

    fn register(&mut self, user: &str) -> bool {
        if user.is_empty() {
            return false;
        }
        self.users.insert(user.to_owned())
    }

    fn post(&mut self, author: &str, text: &str) -> bool {
        if !self.users.contains(author) || text.is_empty() {
            return false;
        }
        let seq = self.posts.len() as u64;
        self.posts.push(BlogPost {
            author: author.to_owned(),
            text: text.to_owned(),
            seq,
        });
        true
    }

    fn follow(&mut self, follower: &str, followee: &str) -> bool {
        if follower == followee || !self.users.contains(follower) || !self.users.contains(followee)
        {
            return false;
        }
        self.follows
            .entry(follower.to_owned())
            .or_default()
            .insert(followee.to_owned())
    }

    fn unfollow(&mut self, follower: &str, followee: &str) -> bool {
        self.follows
            .get_mut(follower)
            .is_some_and(|s| s.remove(followee))
    }
}

canonical!(struct BlogPost { author, text, seq });
canonical!(impl GState for MicroBlog as "MicroBlog" { users, follows, posts, hearts });

/// Typed operation constructors.
pub mod ops {
    use super::*;

    guesstimate_core::methods! {
        MicroBlog;
        /// Register a handle (blocking in spirit, like the event planner's).
        fn register(user: &str) => register_footprint(user);
        /// Publish a post.
        fn post(author: &str, text: &str) => post_footprint();
        /// Follow another user.
        fn follow(follower: &str, followee: &str) => follow_footprint(follower);
        /// Unfollow.
        fn unfollow(follower: &str, followee: &str) => unfollow_footprint(follower);
        /// Blindly applaud a handle.
        fn heart(handle: &str) => heart_footprint(handle), self_commuting;
    }
}

fn register_footprint(user: &str) -> Footprint {
    if user.is_empty() {
        return Footprint::new();
    }
    // `users` is one sorted list in the snapshot; inserting shifts it.
    Footprint::new().reads(["users"]).writes(["users"])
}

fn post_footprint() -> Footprint {
    // Reads the registration set and the current post count (seq);
    // appends to the global post list, so posts self-conflict.
    Footprint::new().reads(["users", "posts"]).writes(["posts"])
}

fn follow_footprint(follower: &str) -> Footprint {
    let key = format!("follows/{follower}");
    Footprint::new()
        .reads(["users".to_owned(), key.clone()])
        .writes([key])
}

fn unfollow_footprint(follower: &str) -> Footprint {
    let key = format!("follows/{follower}");
    Footprint::new().reads([key.clone()]).writes([key])
}

fn heart_footprint(handle: &str) -> Footprint {
    if handle.is_empty() {
        return Footprint::new();
    }
    // Reads the old tally, writes the new one; commutes with itself
    // because addition does.
    let key = format!("hearts/{handle}");
    Footprint::new().reads([key.clone()]).writes([key])
}

/// Registers the microblog type and operations.
pub fn register(registry: &mut OpRegistry) {
    ops::register_methods(registry);
}

fn invariant(v: &Value) -> bool {
    let Ok(b) = MicroBlog::from_value(v) else {
        return false;
    };
    // Every author and follow edge refers to registered users; no self
    // follows; post seq numbers are dense.
    b.posts
        .iter()
        .zip(0..)
        .all(|(p, i)| b.users.contains(&p.author) && p.seq == i)
        && b.follows.iter().all(|(f, set)| {
            b.users.contains(f) && set.iter().all(|x| b.users.contains(x) && x != f)
        })
}

fn heart_contract() -> MethodContract {
    MethodContract::new().with_post(|pre, post, a| {
        // φ_post: exactly this handle's tally grew by one; the checked
        // service state (users, follows, posts) is untouched. The handle
        // need not be registered — hearts are blind by design.
        let Some(h) = <&str>::decode(a) else {
            return false;
        };
        let tally = |v: &Value| {
            v.field("hearts")
                .and_then(Value::as_map)
                .and_then(|m| m.get(h))
                .and_then(Value::as_i64)
                .unwrap_or(0)
        };
        tally(post) == tally(pre) + 1
            && pre.field("users") == post.field("users")
            && pre.field("follows") == post.field("follows")
            && pre.field("posts") == post.field("posts")
    })
}

/// Specification suite for the verifier table.
pub fn spec_suite() -> SpecSuite {
    let handles = ["ann", "bob", "ghost", ""];
    let mut follow_args = Vec::new();
    for f in handles {
        for g in handles {
            follow_args.push(args![f, g]);
        }
    }
    let register = MethodSpec::new(
        "register",
        MethodContract::new()
            .with_guard("empty-handle-fails", |a| {
                <&str>::decode(a).is_some_and(|handle| !handle.is_empty())
            })
            .with_assertion("users-never-disappear", |c| {
                let users = |v: &Value| -> Vec<Value> {
                    v.field("users")
                        .and_then(Value::as_list)
                        .map(<[Value]>::to_vec)
                        .unwrap_or_default()
                };
                let before = users(&c.pre);
                let after = users(&c.post);
                before.iter().all(|u| after.contains(u))
            }),
    )
    .with_args(handles.iter().map(|h| args![*h]).collect(), true);

    let post = MethodSpec::new(
        "post",
        MethodContract::new()
            .with_post(|pre, post, a| {
                let Some(author) = <&str>::decode(a) else {
                    return false;
                };
                // φ_post: the timeline grew by exactly one post — ours, at
                // the end — and every earlier post is as it was.
                let (Some(before), Some(after)) = (
                    pre.field("posts").and_then(Value::as_list),
                    post.field("posts").and_then(Value::as_list),
                ) else {
                    return false;
                };
                after.len() == before.len() + 1
                    && after[..before.len()] == *before
                    && after
                        .last()
                        .and_then(|p| p.field("author"))
                        .and_then(Value::as_str)
                        == Some(author)
            })
            .with_assertion("seq-numbers-stay-dense", |c| {
                c.post
                    .field("posts")
                    .and_then(Value::as_list)
                    .is_some_and(|l| {
                        l.iter()
                            .enumerate()
                            .all(|(i, p)| p.field("seq").and_then(Value::as_i64) == Some(i as i64))
                    })
            })
            .with_assertion("posting-never-touches-follows", |c| {
                c.pre.field("follows") == c.post.field("follows")
            }),
    )
    // Small-scope abstraction: registered vs unregistered author, empty
    // body, empty handle — the footprint is argument-independent, so these
    // representatives generalize.
    .with_args(
        vec![
            args!["ann", "hi"],
            args!["ghost", "hi"],
            args!["ann", ""],
            args!["", "hi"],
        ],
        true,
    );

    let follows = |v: &Value, f: &str, g: &str| {
        v.field("follows")
            .and_then(Value::as_map)
            .and_then(|m| m.get(f))
            .and_then(Value::as_list)
            .is_some_and(|l| l.iter().any(|x| x.as_str() == Some(g)))
    };
    let follow = MethodSpec::new(
        "follow",
        MethodContract::new()
            .with_post(move |_pre, post, a| {
                <(&str, &str)>::decode(a).is_some_and(|(f, g)| follows(post, f, g))
            })
            .with_assertion("self-follow-always-fails", |c| {
                <(&str, &str)>::decode(&c.args).is_none_or(|(f, g)| f != g)
                    || (!c.result && c.pre == c.post)
            })
            .with_assertion("follow-never-touches-posts", |c| {
                c.pre.field("posts") == c.post.field("posts")
            }),
    )
    // Small-scope abstraction: all pairings of two registered handles, an
    // unregistered one, and "" — the footprint depends only on the follower.
    .with_args(follow_args.clone(), true);

    let unfollow = MethodSpec::new(
        "unfollow",
        MethodContract::new()
            .with_post(move |_pre, post, a| {
                <(&str, &str)>::decode(a).is_some_and(|(f, g)| !follows(post, f, g))
            })
            .with_assertion("unfollow-never-touches-posts", |c| {
                c.pre.field("posts") == c.post.field("posts")
            }),
    )
    .with_args(follow_args, true);

    let heart = MethodSpec::new(
        "heart",
        heart_contract()
            .with_guard("empty-handle-fails", |a| {
                <&str>::decode(a).is_some_and(|handle| !handle.is_empty())
            })
            .with_assertion("hearts-are-blind", |c| {
                // Applauding an unregistered handle still succeeds: an
                // existence check would order `heart` after `register`.
                <&str>::decode(&c.args) == Some("") || c.result
            }),
    )
    .with_args(handles.iter().map(|h| args![*h]).collect(), true);

    SpecSuite::new("MicroBlog")
        .with_invariant("referential-integrity", invariant)
        .with_method(register)
        .with_method(post)
        .with_method(follow)
        .with_method(heart)
        .with_method(unfollow)
}

fn states() -> Vec<Value> {
    let o = crate::SCRATCH;
    crate::states_by_ops(
        &APP,
        &[
            ops::register(o, "ann"),
            ops::register(o, "bob"),
            ops::follow(o, "ann", "bob"),
            ops::post(o, "bob", "x"),
            ops::unfollow(o, "ann", "bob"),
        ],
    )
}

/// This application's row of [`crate::all`].
pub const APP: crate::App = crate::App {
    type_name: MicroBlog::TYPE_NAME,
    register,
    spec_suite,
    states,
};

#[cfg(test)]
mod tests {
    use super::*;

    fn blog() -> MicroBlog {
        let mut b = MicroBlog::new();
        assert!(b.register("ann"));
        assert!(b.register("bob"));
        assert!(b.register("cid"));
        b
    }

    #[test]
    fn register_semantics() {
        let mut b = blog();
        assert!(!b.register("ann"), "duplicate");
        assert!(!b.register(""));
        assert_eq!(b.user_count(), 3);
        assert!(b.has_user("cid"));
        assert!(!b.has_user("dan"));
    }

    #[test]
    fn posting_requires_registration_and_text() {
        let mut b = blog();
        assert!(b.post("ann", "hello"));
        assert!(!b.post("ghost", "hi"));
        assert!(!b.post("ann", ""));
        assert_eq!(b.posts().len(), 1);
        assert_eq!(b.posts()[0].seq, 0);
    }

    #[test]
    fn follow_and_unfollow() {
        let mut b = blog();
        assert!(b.follow("ann", "bob"));
        assert!(!b.follow("ann", "bob"), "already following");
        assert!(!b.follow("ann", "ann"), "no self-follow");
        assert!(!b.follow("ann", "ghost"));
        assert!(!b.follow("ghost", "ann"));
        assert!(b.follows("ann", "bob"));
        assert!(b.unfollow("ann", "bob"));
        assert!(!b.unfollow("ann", "bob"));
        assert!(!b.follows("ann", "bob"));
    }

    #[test]
    fn timeline_filters_and_orders_newest_first() {
        let mut b = blog();
        b.follow("ann", "bob");
        b.post("ann", "a1");
        b.post("bob", "b1");
        b.post("cid", "c1");
        b.post("ann", "a2");
        let tl: Vec<&str> = b.timeline("ann").iter().map(|p| p.text.as_str()).collect();
        assert_eq!(tl, vec!["a2", "b1", "a1"], "cid filtered, newest first");
        assert!(b.timeline("ghost").is_empty());
    }

    #[test]
    fn hearts_are_blind_and_additive() {
        let mut b = MicroBlog::new();
        assert!(b.heart("ann"), "no registration needed");
        assert!(b.heart("ann"));
        assert!(b.heart("ghost"));
        assert!(!b.heart(""));
        assert_eq!(b.hearts("ann"), 2);
        assert_eq!(b.hearts("bob"), 0);
        assert_eq!(b.heart_count(), 3);
    }

    #[test]
    fn invariant_checks() {
        let mut b = blog();
        b.follow("ann", "bob");
        b.post("ann", "x");
        assert!(invariant(&GState::snapshot(&b)));
        assert!(!invariant(&Value::Unit));
    }

    #[test]
    fn spec_suite_verifies_cleanly() {
        use guesstimate_spec::{verify_suite, CaseSpace};
        let suite = spec_suite();
        assert!(suite.assertion_count() >= 17);
        let mut reg = OpRegistry::new();
        register(&mut reg);
        let mut b = blog();
        b.follow("ann", "bob");
        b.post("bob", "x");
        b.heart("bob");
        let states = vec![
            GState::snapshot(&MicroBlog::new()),
            GState::snapshot(&blog()),
            GState::snapshot(&b),
        ];
        let report = verify_suite(&reg, &suite, &CaseSpace::sampled(states, 100_000));
        assert_eq!(report.refuted(), 0);
        assert!(report.verified() >= 1);
    }
}
