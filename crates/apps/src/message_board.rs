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

use guesstimate_core::{
    args, EffectSpec, Footprint, GState, ObjectId, OpRegistry, RestoreError, SharedOp, Value,
};
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

impl GState for MessageBoard {
    const TYPE_NAME: &'static str = "MessageBoard";

    fn snapshot(&self) -> Value {
        let topics = Value::map(self.topics.iter().map(|(name, posts)| {
            (
                name.clone(),
                posts
                    .iter()
                    .map(|p| {
                        Value::map([
                            ("author", Value::from(p.author.clone())),
                            ("text", Value::from(p.text.clone())),
                        ])
                    })
                    .collect(),
            )
        }));
        let likes = Value::map(
            self.likes
                .iter()
                .map(|(k, n)| (k.clone(), Value::from(*n as i64))),
        );
        Value::map([("topics", topics), ("likes", likes)])
    }

    fn restore(&mut self, v: &Value) -> Result<(), RestoreError> {
        let shape = || RestoreError::shape("message-board snapshot");
        self.topics.clear();
        for (name, posts) in v
            .field("topics")
            .and_then(Value::as_map)
            .ok_or_else(shape)?
        {
            let posts = posts
                .as_list()
                .ok_or_else(shape)?
                .iter()
                .map(|p| {
                    Ok(Post {
                        author: p
                            .field("author")
                            .and_then(Value::as_str)
                            .ok_or_else(shape)?
                            .to_owned(),
                        text: p
                            .field("text")
                            .and_then(Value::as_str)
                            .ok_or_else(shape)?
                            .to_owned(),
                    })
                })
                .collect::<Result<Vec<_>, RestoreError>>()?;
            self.topics.insert(name.clone(), posts);
        }
        self.likes.clear();
        for (k, n) in v.field("likes").and_then(Value::as_map).ok_or_else(shape)? {
            let n = n.as_i64().ok_or_else(shape)?;
            self.likes.insert(k.clone(), n as u64);
        }
        Ok(())
    }
}

/// Typed operation constructors.
pub mod ops {
    use super::*;

    /// Create a topic (fails on duplicates).
    pub fn create_topic(obj: ObjectId, name: &str) -> SharedOp {
        SharedOp::primitive(obj, "create_topic", args![name])
    }

    /// Append a post to a topic.
    pub fn post(obj: ObjectId, topic: &str, author: &str, text: &str) -> SharedOp {
        SharedOp::primitive(obj, "post", args![topic, author, text])
    }

    /// Blindly bump the like tally for a key.
    pub fn like(obj: ObjectId, key: &str) -> SharedOp {
        SharedOp::primitive(obj, "like", args![key])
    }
}

fn apply_create(s: &mut MessageBoard, a: guesstimate_core::ArgView<'_>) -> bool {
    let Some(n) = a.str(0) else { return false };
    s.create_topic(n)
}

fn apply_like(s: &mut MessageBoard, a: guesstimate_core::ArgView<'_>) -> bool {
    let Some(k) = a.str(0) else { return false };
    s.like(k)
}

fn apply_post(s: &mut MessageBoard, a: guesstimate_core::ArgView<'_>) -> bool {
    let (Some(t), Some(au), Some(x)) = (a.str(0), a.str(1), a.str(2)) else {
        return false;
    };
    s.post(t, au, x)
}

fn create_topic_effect() -> EffectSpec {
    EffectSpec::new(|a| {
        let Some(n) = a.str(0) else {
            return Footprint::new();
        };
        if n.is_empty() {
            return Footprint::new();
        }
        let key = format!("topics/{n}");
        Footprint::new().reads([key.clone()]).writes([key])
    })
}

fn post_effect() -> EffectSpec {
    EffectSpec::new(|a| {
        let (Some(t), Some(au)) = (a.str(0), a.str(1)) else {
            return Footprint::new();
        };
        if au.is_empty() {
            return Footprint::new();
        }
        // Appends to the topic's post list: the list content depends on the
        // existing posts, so the whole topic key is both read and written —
        // two posts to the *same* topic deliberately conflict (order-visible).
        let key = format!("topics/{t}");
        Footprint::new().reads([key.clone()]).writes([key])
    })
}

fn like_effect() -> EffectSpec {
    EffectSpec::new(|a| {
        let Some(k) = a.str(0) else {
            return Footprint::new();
        };
        if k.is_empty() {
            return Footprint::new();
        }
        // The increment reads the old tally; still commutes with itself
        // because addition does.
        let key = format!("likes/{k}");
        Footprint::new().reads([key.clone()]).writes([key])
    })
    .self_commuting()
}

/// Registers the message-board type and operations.
pub fn register(registry: &mut OpRegistry) {
    registry.register_type::<MessageBoard>();
    registry.register_with_effects::<MessageBoard>(
        "create_topic",
        create_topic_effect(),
        apply_create,
    );
    registry.register_with_effects::<MessageBoard>("post", post_effect(), apply_post);
    registry.register_with_effects::<MessageBoard>("like", like_effect(), apply_like);
}

fn post_contract() -> MethodContract {
    MethodContract::new().with_post(|pre, post, a| {
        // φ_post: the topic's post list grew by exactly one — ours, at the
        // end — and no other topic changed.
        let (Some(topic), Some(author)) = (
            a.first().and_then(Value::as_str),
            a.get(1).and_then(Value::as_str),
        ) else {
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
        let Some(key) = a.first().and_then(Value::as_str) else {
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
    use guesstimate_spec::Assertion;

    let create = MethodSpec::new(
        "create_topic",
        MethodContract::new()
            .with_post(|pre, post, a| {
                // φ_create_topic: the name was free and now heads an empty
                // post list.
                let Some(name) = a.first().and_then(Value::as_str) else {
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
            .with_assertion_obj(
                Assertion::new("empty-topic-name-fails", |c| {
                    c.args.first().and_then(Value::as_str) != Some("")
                        || (!c.result && c.pre == c.post)
                })
                .assume_state_independent(),
            )
            .with_assertion("topics-never-disappear", |c| {
                let (Some(mp), Some(mq)) = (
                    c.pre.field("topics").and_then(Value::as_map),
                    c.post.field("topics").and_then(Value::as_map),
                ) else {
                    return false;
                };
                mp.keys().all(|k| mq.contains_key(k))
            }),
    )
    // Small-scope abstraction: "" vs one representative non-empty name.
    .with_args(vec![args!["general"], args![""]], true);

    let post = MethodSpec::new(
        "post",
        post_contract()
            .with_assertion_obj(
                Assertion::new("anonymous-post-fails", |c| {
                    c.args.get(1).and_then(Value::as_str) != Some("")
                        || (!c.result && c.pre == c.post)
                })
                .assume_state_independent(),
            )
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
    )
    // Small-scope abstraction: present vs missing topic, anonymous author,
    // empty body — the footprint depends only on the topic name, so these
    // representatives generalize.
    .with_args(
        vec![
            args!["general", "ann", "hi"],
            args!["missing", "ann", "hi"],
            args!["general", "", "hi"],
            args!["general", "ann", ""],
        ],
        true,
    );

    let like = MethodSpec::new(
        "like",
        like_contract()
            .with_assertion_obj(
                Assertion::new("empty-key-fails", |c| {
                    c.args.first().and_then(Value::as_str) != Some("")
                        || (!c.result && c.pre == c.post)
                })
                .assume_state_independent(),
            )
            .with_assertion("likes-are-blind", |c| {
                // Succeeds whether or not the key names a real topic: an
                // existence check would order `like` after `create_topic`.
                c.args.first().and_then(Value::as_str) == Some("") || c.result
            }),
    )
    // Small-scope abstraction: a key with a topic, one without, and "".
    .with_args(vec![args!["general"], args!["missing"], args![""]], true);

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
    fn snapshot_roundtrip() {
        let mut b = MessageBoard::new();
        b.create_topic("general");
        b.post("general", "ann", "hello");
        b.like("general");
        let mut c = MessageBoard::new();
        GState::restore(&mut c, &GState::snapshot(&b)).unwrap();
        assert_eq!(b, c);
    }

    #[test]
    fn restore_rejects_malformed() {
        let mut b = MessageBoard::new();
        assert!(GState::restore(&mut b, &Value::from(1)).is_err());
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
