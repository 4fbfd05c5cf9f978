//! Retwis: the Redis-tutorial Twitter clone (§6.2).
//!
//! Several Twitter functions performing PUTs and GETs on a key-value
//! store. Read-intensive: timelines dominate.
//!
//! Registered SSFs:
//!  - `retwis.post`     — write a tweet, push onto the author's posts and
//!    the public timeline (capped lists)
//!  - `retwis.timeline` — read the public timeline and the tweet bodies
//!  - `retwis.follow`   — update follower/following sets
//!  - `retwis.profile`  — read a user's profile and recent posts
//!
//! Request mix: 15 % post, 50 % timeline, 15 % follow, 20 % profile.

use std::rc::Rc;

use halfmoon::Client;
use hm_common::{Key, Value};
use hm_runtime::{RequestFactory, Runtime};
use rand::RngExt;

use crate::Workload;

/// Retwis workload configuration.
#[derive(Clone, Copy, Debug)]
pub struct Retwis {
    /// Number of users.
    pub users: u32,
    /// Tweet body size in bytes.
    pub tweet_bytes: usize,
    /// Timeline length cap.
    pub timeline_cap: usize,
}

impl Default for Retwis {
    fn default() -> Retwis {
        Retwis {
            users: 500,
            tweet_bytes: 140,
            timeline_cap: 10,
        }
    }
}

impl Workload for Retwis {
    fn name(&self) -> &'static str {
        "retwis"
    }

    fn register(&self, runtime: &Runtime) {
        let cap = self.timeline_cap;
        runtime.register("retwis.post", async move |env, input| {
            let user = input.get("user").and_then(Value::as_int).unwrap_or(0);
            let tweet_id = input.get("tweet_id").and_then(Value::as_int).unwrap_or(0);
            // Store the tweet body.
            env.write(&Key::new(format!("tweet:{tweet_id}")), input.clone())
                .await?;
            // Push onto the author's post list.
            let posts_key = Key::new(format!("ruser:{user}:posts"));
            let mut posts = env
                .read(&posts_key)
                .await?
                .as_list()
                .unwrap_or(&[])
                .to_vec();
            posts.push(Value::Int(tweet_id));
            if posts.len() > cap {
                posts.remove(0);
            }
            env.write(&posts_key, Value::list(posts)).await?;
            // Push onto the public timeline.
            let tl_key = Key::new("timeline:public");
            let mut tl = env.read(&tl_key).await?.as_list().unwrap_or(&[]).to_vec();
            tl.push(Value::Int(tweet_id));
            if tl.len() > cap {
                tl.remove(0);
            }
            env.write(&tl_key, Value::list(tl)).await?;
            Ok(Value::Int(tweet_id))
        });
        runtime.register("retwis.timeline", async move |env, _input| {
            let ids = env.read(&Key::new("timeline:public")).await?;
            let mut tweets = Vec::new();
            for id in ids.as_list().unwrap_or(&[]).iter().rev().take(5) {
                if let Some(id) = id.as_int() {
                    tweets.push(env.read(&Key::new(format!("tweet:{id}"))).await?);
                }
            }
            env.compute().await;
            Ok(Value::list(tweets))
        });
        runtime.register("retwis.follow", async move |env, input| {
            let follower = input.get("follower").and_then(Value::as_int).unwrap_or(0);
            let followee = input.get("followee").and_then(Value::as_int).unwrap_or(0);
            let fkey = Key::new(format!("ruser:{follower}:following"));
            let mut following = env.read(&fkey).await?.as_list().unwrap_or(&[]).to_vec();
            if !following.contains(&Value::Int(followee)) {
                following.push(Value::Int(followee));
                if following.len() > 64 {
                    following.remove(0);
                }
            }
            env.write(&fkey, Value::list(following)).await?;
            let gkey = Key::new(format!("ruser:{followee}:followers"));
            let mut followers = env.read(&gkey).await?.as_list().unwrap_or(&[]).to_vec();
            if !followers.contains(&Value::Int(follower)) {
                followers.push(Value::Int(follower));
                if followers.len() > 64 {
                    followers.remove(0);
                }
            }
            env.write(&gkey, Value::list(followers)).await?;
            Ok(Value::Null)
        });
        runtime.register("retwis.profile", async move |env, input| {
            let user = input.get("user").and_then(Value::as_int).unwrap_or(0);
            let profile = env.read(&Key::new(format!("ruser:{user}"))).await?;
            let posts = env.read(&Key::new(format!("ruser:{user}:posts"))).await?;
            let mut bodies = Vec::new();
            for id in posts.as_list().unwrap_or(&[]).iter().rev().take(3) {
                if let Some(id) = id.as_int() {
                    bodies.push(env.read(&Key::new(format!("tweet:{id}"))).await?);
                }
            }
            Ok(Value::list(vec![profile, Value::list(bodies)]))
        });
    }

    fn populate(&self, client: &Client) {
        for u in 0..self.users {
            client.populate(
                Key::new(format!("ruser:{u}")),
                Value::map([("name", Value::str(format!("user{u}")))]),
            );
            client.populate(
                Key::new(format!("ruser:{u}:posts")),
                Value::list(Vec::new()),
            );
            client.populate(
                Key::new(format!("ruser:{u}:following")),
                Value::list(Vec::new()),
            );
            client.populate(
                Key::new(format!("ruser:{u}:followers")),
                Value::list(Vec::new()),
            );
        }
        client.populate(Key::new("timeline:public"), Value::list(Vec::new()));
    }

    fn factory(&self) -> RequestFactory {
        let users = i64::from(self.users);
        let tweet_bytes = self.tweet_bytes;
        Rc::new(move |rng, seq| {
            let roll: f64 = rng.random();
            let user = rng.random_range(0..users);
            if roll < 0.15 {
                (
                    "retwis.post".to_string(),
                    Value::map([
                        ("user", Value::Int(user)),
                        ("tweet_id", Value::Int(seq as i64)),
                        ("body", Value::blob(tweet_bytes, rng.random())),
                    ]),
                )
            } else if roll < 0.65 {
                ("retwis.timeline".to_string(), Value::Null)
            } else if roll < 0.80 {
                let followee = rng.random_range(0..users);
                (
                    "retwis.follow".to_string(),
                    Value::map([
                        ("follower", Value::Int(user)),
                        ("followee", Value::Int(followee)),
                    ]),
                )
            } else {
                (
                    "retwis.profile".to_string(),
                    Value::map([("user", Value::Int(user))]),
                )
            }
        })
    }
}
