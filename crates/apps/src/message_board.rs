//! The message-board application (§6).
//!
//! Topics hold an append-only list of posts. The interesting property under
//! GUESSTIMATE is ordering: two users posting concurrently both see their
//! own post first on their guesstimated state, and the commit order decides
//! the final, globally agreed order — no post is ever lost, so posts rarely
//! conflict (`post` only fails on a missing topic).
//!
//! `like` is the board's *blind counter*: it bumps a per-key tally without
//! reading topics, posts, or even whether the key exists. By construction it
//! commutes — in state and result — with every method including itself, so
//! the effect analysis classifies it a **universal commuter** and the
//! runtime's hybrid async commit path (`MachineConfig::async_commit`) may
//! commit it without waiting for a synchronization round.

use std::collections::BTreeMap;

use guesstimate_core::codec::Args;
use guesstimate_core::{canonical, Footprint, GState, OpRegistry, Value};
use guesstimate_spec::{MethodContract, MethodSpec, SpecSuite};

/// One post.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Post {
    /// Author name.
    pub author: String,
    /// Body text.
    pub text: String,
}

/// The shared message-board state.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct MessageBoard {
    topics: BTreeMap<String, Vec<Post>>,
    /// Blind like tallies, keyed by an arbitrary client-chosen string
    /// (conventionally `topic` or `topic/seq`). Deliberately *not*
    /// referentially checked against topics: any existence precondition
    /// would order `like` against `create_topic` and destroy the
    /// universal commutation the hybrid path relies on.
    likes: BTreeMap<String, u64>,
}

impl MessageBoard {
    /// A fresh, empty board.
    pub fn new() -> Self {
        MessageBoard::default()
    }

    /// All topic names, in order.
    pub fn topics(&self) -> Vec<String> {
        self.topics.keys().cloned().collect()
    }

    /// The posts of a topic, oldest first.
    pub fn posts(&self, topic: &str) -> Option<&[Post]> {
        self.topics.get(topic).map(Vec::as_slice)
    }

    /// Total number of posts across all topics.
    pub fn post_count(&self) -> usize {
        self.topics.values().map(Vec::len).sum()
    }

    fn create_topic(&mut self, name: &str) -> bool {
        if name.is_empty() || self.topics.contains_key(name) {
            return false;
        }
        self.topics.insert(name.to_owned(), Vec::new());
        true
    }

    /// The like tally for a key (0 when never liked).
    pub fn likes(&self, key: &str) -> u64 {
        self.likes.get(key).copied().unwrap_or(0)
    }

    /// Total likes across all keys.
    pub fn like_count(&self) -> u64 {
        self.likes.values().sum()
    }

    fn like(&mut self, key: &str) -> bool {
        if key.is_empty() {
            return false;
        }
        // Almost every like bumps a tally that exists already: allocate
        // the key only on its first.
        match self.likes.get_mut(key) {
            Some(n) => *n += 1,
            None => {
                self.likes.insert(key.to_owned(), 1);
            }
        }
        true
    }

    fn post(&mut self, topic: &str, author: &str, text: &str) -> bool {
        if author.is_empty() {
            return false;
        }
        match self.topics.get_mut(topic) {
            Some(posts) => {
                posts.push(Post {
                    author: author.to_owned(),
                    text: text.to_owned(),
                });
                true
            }
            None => false,
        }
    }
}

canonical!(struct Post { author, text });
canonical!(impl GState for MessageBoard as "MessageBoard" { topics, likes });

/// Typed operation constructors.
pub mod ops {
    use super::*;

    guesstimate_core::methods! {
        MessageBoard;
        /// Create a topic (fails on duplicates).
        fn create_topic(name: &str = ["general"]) => create_topic_footprint(name);
        /// Append a post to a topic. The footprint depends only on the
        /// topic, so a present and a missing one generalize.
        fn post(topic: &str = ["general", "missing"], author: &str = ["ann"], text: &str = ["hi"])
            => post_footprint(topic, author);
        /// Blindly bump the like tally for a key (one with a topic, one
        /// without).
        fn like(key: &str = ["general", "missing"]) => like_footprint(key), self_commuting;
    }
}

fn create_topic_footprint(name: &str) -> Footprint {
    if name.is_empty() {
        return Footprint::new();
    }
    let key = format!("topics/{name}");
    Footprint::new().reads([key.clone()]).writes([key])
}

fn post_footprint(topic: &str, author: &str) -> Footprint {
    if author.is_empty() {
        return Footprint::new();
    }
    // Appends to the topic's post list: the list content depends on the
    // existing posts, so the whole topic key is both read and written —
    // two posts to the *same* topic deliberately conflict (order-visible).
    let key = format!("topics/{topic}");
    Footprint::new().reads([key.clone()]).writes([key])
}

fn like_footprint(key: &str) -> Footprint {
    if key.is_empty() {
        return Footprint::new();
    }
    // The increment reads the old tally; still commutes with itself
    // because addition does.
    let key = format!("likes/{key}");
    Footprint::new().reads([key.clone()]).writes([key])
}

/// Registers the message-board type and operations.
pub fn register(registry: &mut OpRegistry) {
    ops::register_methods(registry);
}

fn post_contract() -> MethodContract {
    MethodContract::new().with_post(|pre, post, a| {
        // φ_post: the topic's post list grew by exactly one — ours, at the
        // end — and no other topic changed.
        let Some((topic, author)) = <(&str, &str)>::decode(a) else {
            return false;
        };
        let (Some(mp), Some(mq)) = (
            pre.field("topics").and_then(Value::as_map),
            post.field("topics").and_then(Value::as_map),
        ) else {
            return false;
        };
        let (Some(before), Some(after)) = (
            mp.get(topic).and_then(Value::as_list),
            mq.get(topic).and_then(Value::as_list),
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
            && mp.iter().all(|(k, v)| k == topic || mq.get(k) == Some(v))
    })
}

fn like_contract() -> MethodContract {
    MethodContract::new().with_post(|pre, post, a| {
        // φ_post: exactly this key's tally grew by one; topics untouched.
        let Some(key) = <&str>::decode(a) else {
            return false;
        };
        let tally = |v: &Value| {
            v.field("likes")
                .and_then(Value::as_map)
                .and_then(|m| m.get(key))
                .and_then(Value::as_i64)
                .unwrap_or(0)
        };
        tally(post) == tally(pre) + 1 && pre.field("topics") == post.field("topics")
    })
}

/// Specification suite for the verifier table.
pub fn spec_suite() -> SpecSuite {
    let create = MethodSpec::new(
        "create_topic",
        MethodContract::new()
            .with_post(|pre, post, a| {
                // φ_create_topic: the name was free and now heads an empty
                // post list.
                let Some(name) = <&str>::decode(a) else {
                    return false;
                };
                pre.field("topics")
                    .and_then(Value::as_map)
                    .is_some_and(|m| !m.contains_key(name))
                    && post
                        .field("topics")
                        .and_then(Value::as_map)
                        .is_some_and(|m| {
                            m.get(name)
                                .and_then(Value::as_list)
                                .is_some_and(|l| l.is_empty())
                        })
            })
            .with_guard("empty-topic-name-fails", |a| {
                <&str>::decode(a).is_some_and(|name| !name.is_empty())
            })
            .with_assertion("topics-never-disappear", |c| {
                let (Some(mp), Some(mq)) = (
                    c.pre.field("topics").and_then(Value::as_map),
                    c.post.field("topics").and_then(Value::as_map),
                ) else {
                    return false;
                };
                mp.keys().all(|k| mq.contains_key(k))
            }),
    );

    let post = MethodSpec::new(
        "post",
        post_contract()
            .with_guard("anonymous-post-fails", |a| {
                <(&str, &str, &str)>::decode(a).is_some_and(|(_, author, _)| !author.is_empty())
            })
            .with_assertion("posts-are-append-only", |c| {
                let (Some(mp), Some(mq)) = (
                    c.pre.field("topics").and_then(Value::as_map),
                    c.post.field("topics").and_then(Value::as_map),
                ) else {
                    return false;
                };
                mp.iter().all(
                    |(k, v)| match (v.as_list(), mq.get(k).and_then(Value::as_list)) {
                        (Some(before), Some(after)) => {
                            after.len() >= before.len() && after[..before.len()] == *before
                        }
                        _ => false,
                    },
                )
            }),
    );

    let like = MethodSpec::new(
        "like",
        like_contract()
            .with_guard("empty-key-fails", |a| {
                <&str>::decode(a).is_some_and(|key| !key.is_empty())
            })
            .with_assertion("likes-are-blind", |c| {
                // Succeeds whether or not the key names a real topic: an
                // existence check would order `like` after `create_topic`.
                <&str>::decode(&c.args).is_none_or(str::is_empty) || c.result
            }),
    );

    SpecSuite::new("MessageBoard")
        .with_method(create)
        .with_method(post)
        .with_method(like)
}

fn states() -> Vec<Value> {
    let o = crate::SCRATCH;
    crate::states_by_ops(
        &APP,
        &[
            ops::create_topic(o, "general"),
            ops::post(o, "general", "ann", "hi"),
            ops::create_topic(o, "random"),
            ops::post(o, "general", "bob", "yo"),
        ],
    )
}

/// This application's row of [`crate::all`].
pub const APP: crate::App = crate::App {
    type_name: MessageBoard::TYPE_NAME,
    register,
    spec_suite,
    states,
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn topics_are_unique_and_nonempty() {
        let mut b = MessageBoard::new();
        assert!(b.create_topic("general"));
        assert!(!b.create_topic("general"));
        assert!(!b.create_topic(""));
        assert_eq!(b.topics(), vec!["general"]);
    }

    #[test]
    fn posts_append_in_order() {
        let mut b = MessageBoard::new();
        b.create_topic("general");
        assert!(b.post("general", "ann", "first"));
        assert!(b.post("general", "bob", "second"));
        let posts = b.posts("general").unwrap();
        assert_eq!(posts.len(), 2);
        assert_eq!(posts[0].author, "ann");
        assert_eq!(posts[1].text, "second");
        assert_eq!(b.post_count(), 2);
    }

    #[test]
    fn post_fails_on_missing_topic_or_anonymous() {
        let mut b = MessageBoard::new();
        assert!(!b.post("nope", "ann", "x"));
        b.create_topic("general");
        assert!(!b.post("general", "", "x"));
        assert_eq!(b.post_count(), 0);
        assert!(b.posts("nope").is_none());
    }

    #[test]
    fn likes_are_blind_and_additive() {
        let mut b = MessageBoard::new();
        assert!(b.like("general"), "no topic needed");
        assert!(b.like("general"));
        assert!(b.like("general/0"));
        assert!(!b.like(""));
        assert_eq!(b.likes("general"), 2);
        assert_eq!(b.likes("nope"), 0);
        assert_eq!(b.like_count(), 3);
    }

    #[test]
    fn the_first_like_creates_the_tally_and_later_likes_bump_it() {
        let mut b = MessageBoard::new();
        assert!(!b.likes.contains_key("general"));
        assert!(b.like("general"));
        assert_eq!(b.likes.get("general"), Some(&1), "created at one");
        assert!(b.like("general"));
        assert!(b.like("general"));
        assert_eq!(b.likes.get("general"), Some(&3), "bumped in place");
        assert_eq!(b.likes.len(), 1, "one tally per key");
    }

    #[test]
    fn spec_suite_verifies_cleanly() {
        use guesstimate_spec::{verify_suite, CaseSpace};
        let suite = spec_suite();
        assert!(suite.assertion_count() >= 10);
        let mut reg = OpRegistry::new();
        register(&mut reg);
        let mut b = MessageBoard::new();
        b.create_topic("general");
        let mut b2 = b.clone();
        b2.post("general", "ann", "hello");
        b2.like("general");
        let states = vec![
            GState::snapshot(&MessageBoard::new()),
            GState::snapshot(&b),
            GState::snapshot(&b2),
        ];
        let report = verify_suite(&reg, &suite, &CaseSpace::sampled(states, 100_000));
        assert_eq!(report.refuted(), 0);
        assert!(report.verified() >= 1);
    }
}
