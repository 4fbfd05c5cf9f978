//! Movie review: a 13-SSF workflow skewed toward writes (§6.2).
//!
//! Adapted from DeathStarBench's media service. Posting user reviews is
//! the core functionality, so the request mix leans on the compose-review
//! pipeline, which fans a review out to per-movie and per-user lists.
//!
//! Registered SSFs (13):
//!  1. `movie.compose`           — entry: the review-post pipeline
//!  2. `movie.unique_id`         — assign the review id
//!  3. `movie.text`              — process review text
//!  4. `movie.user_lookup`       — resolve username → user id
//!  5. `movie.movie_id`          — resolve title → movie id
//!  6. `movie.rating`            — update the movie's running rating
//!  7. `movie.store_review`      — persist the review object (write)
//!  8. `movie.user_reviews`      — append to the user's review list
//!  9. `movie.movie_reviews`     — append to the movie's review list
//! 10. `movie.page`              — entry: read a movie page
//! 11. `movie.movie_info`        — movie metadata
//! 12. `movie.read_reviews`      — latest reviews of a movie
//! 13. `movie.login`             — entry: credential check (read)
//!
//! Request mix: 55 % compose, 35 % page, 10 % login.

use std::rc::Rc;

use halfmoon::Client;
use hm_common::{Key, Value};
use hm_runtime::{RequestFactory, Runtime};
use rand::RngExt;

use crate::Workload;

/// Movie-review workload configuration.
#[derive(Clone, Copy, Debug)]
pub struct Movie {
    /// Number of movies in the catalog.
    pub movies: u32,
    /// Number of registered users.
    pub users: u32,
    /// Review text size in bytes.
    pub review_bytes: usize,
}

impl Default for Movie {
    fn default() -> Movie {
        Movie {
            movies: 100,
            users: 200,
            review_bytes: 256,
        }
    }
}

impl Workload for Movie {
    fn name(&self) -> &'static str {
        "movie"
    }

    fn register(&self, runtime: &Runtime) {
        runtime.register("movie.unique_id", async move |env, input| {
            env.compute().await;
            // The id is carried in the input (gateway-sampled) to keep
            // the body deterministic.
            Ok(input.get("review_id").cloned().unwrap_or(Value::Int(0)))
        });
        runtime.register("movie.text", async move |env, input| {
            env.compute().await;
            Ok(input.get("text").cloned().unwrap_or(Value::Null))
        });
        runtime.register("movie.user_lookup", async move |env, input| {
            let user = input.get("user").and_then(Value::as_int).unwrap_or(0);
            let record = env.read(&Key::new(format!("muser:{user}"))).await?;
            Ok(record)
        });
        runtime.register("movie.movie_id", async move |env, input| {
            let movie = input.get("movie").and_then(Value::as_int).unwrap_or(0);
            let record = env.read(&Key::new(format!("title:{movie}"))).await?;
            env.compute().await;
            Ok(record)
        });
        runtime.register("movie.rating", async move |env, input| {
            let movie = input.get("movie").and_then(Value::as_int).unwrap_or(0);
            let stars = input.get("stars").and_then(Value::as_int).unwrap_or(3);
            let key = Key::new(format!("movie:{movie}:rating"));
            let current = env.read(&key).await?;
            // A missing rating (Null) reads as zero stars from zero votes.
            let sum = current.get("sum").and_then(Value::as_int).unwrap_or(0);
            let count = current.get("count").and_then(Value::as_int).unwrap_or(0);
            env.write(
                &key,
                Value::map([
                    ("sum", Value::Int(sum + stars)),
                    ("count", Value::Int(count + 1)),
                ]),
            )
            .await?;
            Ok(Value::Null)
        });
        runtime.register("movie.store_review", async move |env, input| {
            let review_id = input.get("review_id").and_then(Value::as_int).unwrap_or(0);
            env.write(&Key::new(format!("review:{review_id}")), input.clone())
                .await?;
            Ok(Value::Int(review_id))
        });
        runtime.register("movie.user_reviews", async move |env, input| {
            let user = input.get("user").and_then(Value::as_int).unwrap_or(0);
            let review_id = input.get("review_id").and_then(Value::as_int).unwrap_or(0);
            let key = Key::new(format!("muser:{user}:reviews"));
            let mut list = env.read(&key).await?.as_list().unwrap_or(&[]).to_vec();
            list.push(Value::Int(review_id));
            // Bounded list, like the real service's capped timelines.
            if list.len() > 16 {
                list.remove(0);
            }
            env.write(&key, Value::list(list)).await?;
            Ok(Value::Null)
        });
        runtime.register("movie.movie_reviews", async move |env, input| {
            let movie = input.get("movie").and_then(Value::as_int).unwrap_or(0);
            let review_id = input.get("review_id").and_then(Value::as_int).unwrap_or(0);
            let key = Key::new(format!("movie:{movie}:reviews"));
            let mut list = env.read(&key).await?.as_list().unwrap_or(&[]).to_vec();
            list.push(Value::Int(review_id));
            if list.len() > 16 {
                list.remove(0);
            }
            env.write(&key, Value::list(list)).await?;
            Ok(Value::Null)
        });
        // Entry: the compose pipeline.
        runtime.register("movie.compose", async move |env, input| {
            let review_id = env.invoke("movie.unique_id", input.clone()).await?;
            env.invoke("movie.text", input.clone()).await?;
            env.invoke("movie.user_lookup", input.clone()).await?;
            env.invoke("movie.movie_id", input.clone()).await?;
            env.invoke("movie.store_review", input.clone()).await?;
            env.invoke("movie.rating", input.clone()).await?;
            env.invoke("movie.user_reviews", input.clone()).await?;
            env.invoke("movie.movie_reviews", input).await?;
            Ok(review_id)
        });
        runtime.register("movie.movie_info", async move |env, input| {
            let movie = input.get("movie").and_then(Value::as_int).unwrap_or(0);
            let info = env.read(&Key::new(format!("movie:{movie}:info"))).await?;
            Ok(info)
        });
        runtime.register("movie.read_reviews", async move |env, input| {
            let movie = input.get("movie").and_then(Value::as_int).unwrap_or(0);
            let ids = env
                .read(&Key::new(format!("movie:{movie}:reviews")))
                .await?;
            let mut reviews = Vec::new();
            // Read up to three most recent review bodies.
            for id in ids.as_list().unwrap_or(&[]).iter().rev().take(3) {
                if let Some(id) = id.as_int() {
                    reviews.push(env.read(&Key::new(format!("review:{id}"))).await?);
                }
            }
            Ok(Value::list(reviews))
        });
        // Entry: a movie page = info + rating + reviews.
        runtime.register("movie.page", async move |env, input| {
            let info = env.invoke("movie.movie_info", input.clone()).await?;
            let movie = input.get("movie").and_then(Value::as_int).unwrap_or(0);
            let rating = env.read(&Key::new(format!("movie:{movie}:rating"))).await?;
            let reviews = env.invoke("movie.read_reviews", input).await?;
            Ok(Value::list(vec![info, rating, reviews]))
        });
        // Entry: login check.
        runtime.register("movie.login", async move |env, input| {
            let user = input.get("user").and_then(Value::as_int).unwrap_or(0);
            let record = env.read(&Key::new(format!("muser:{user}"))).await?;
            env.compute().await;
            Ok(Value::Bool(!record.is_null()))
        });
    }

    fn populate(&self, client: &Client) {
        for m in 0..self.movies {
            let m = i64::from(m);
            client.populate(
                Key::new(format!("title:{m}")),
                Value::map([("movie_id", Value::Int(m))]),
            );
            client.populate(
                Key::new(format!("movie:{m}:info")),
                Value::map([
                    ("title", Value::str(format!("Movie {m}"))),
                    ("year", Value::Int(1990 + m % 35)),
                ]),
            );
            client.populate(
                Key::new(format!("movie:{m}:rating")),
                Value::map([("sum", Value::Int(0)), ("count", Value::Int(0))]),
            );
            client.populate(
                Key::new(format!("movie:{m}:reviews")),
                Value::list(Vec::new()),
            );
        }
        for u in 0..self.users {
            client.populate(
                Key::new(format!("muser:{u}")),
                Value::map([("name", Value::str(format!("user{u}")))]),
            );
            client.populate(
                Key::new(format!("muser:{u}:reviews")),
                Value::list(Vec::new()),
            );
        }
    }

    fn factory(&self) -> RequestFactory {
        let movies = i64::from(self.movies);
        let users = i64::from(self.users);
        let review_bytes = self.review_bytes;
        Rc::new(move |rng, seq| {
            let roll: f64 = rng.random();
            let movie = rng.random_range(0..movies);
            let user = rng.random_range(0..users);
            if roll < 0.55 {
                (
                    "movie.compose".to_string(),
                    Value::map([
                        ("movie", Value::Int(movie)),
                        ("user", Value::Int(user)),
                        ("stars", Value::Int(rng.random_range(1..=5))),
                        ("review_id", Value::Int(seq as i64)),
                        ("text", Value::blob(review_bytes, rng.random())),
                    ]),
                )
            } else if roll < 0.90 {
                (
                    "movie.page".to_string(),
                    Value::map([("movie", Value::Int(movie))]),
                )
            } else {
                (
                    "movie.login".to_string(),
                    Value::map([("user", Value::Int(user))]),
                )
            }
        })
    }
}
