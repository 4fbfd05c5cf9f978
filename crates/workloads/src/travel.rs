//! Travel reservation: a 10-SSF read-intensive workflow (§6.2).
//!
//! Adapted from DeathStarBench's hotel-reservation service. Users search
//! for nearby hotels based on distance and ratings, then make reservations.
//!
//! Registered SSFs (10):
//!  1. `travel.search`        — entry: geo → rate → profile
//!  2. `travel.geo`           — nearby hotels by location
//!  3. `travel.rate`          — rates for candidate hotels
//!  4. `travel.profile`       — hotel profiles
//!  5. `travel.recommend`     — recommendations by rating
//!  6. `travel.user`          — user lookup / login check
//!  7. `travel.reserve`       — entry: user → availability → order
//!  8. `travel.availability`  — room availability check
//!  9. `travel.order`         — create the reservation order (write)
//! 10. `travel.update_stock`  — decrement availability (read+write)
//!
//! Request mix: 60 % search, 35 % recommend, 5 % reserve — read-intensive,
//! matching the paper's characterization.

use std::rc::Rc;

use halfmoon::Client;
use hm_common::{Key, Value};
use hm_runtime::{RequestFactory, Runtime};
use rand::RngExt;

use crate::Workload;

/// Travel-reservation workload configuration.
#[derive(Clone, Copy, Debug)]
pub struct Travel {
    /// Number of hotels in the catalog.
    pub hotels: u32,
    /// Number of registered users.
    pub users: u32,
}

impl Default for Travel {
    fn default() -> Travel {
        Travel {
            hotels: 100,
            users: 200,
        }
    }
}

fn hotel_key(field: &str, hotel: i64) -> Key {
    Key::new(format!("hotel:{hotel}:{field}"))
}

impl Workload for Travel {
    fn name(&self) -> &'static str {
        "travel"
    }

    fn register(&self, runtime: &Runtime) {
        // Leaf: nearby hotels for a location cell.
        runtime.register("travel.geo", async move |env, input| {
            let cell = input.get("cell").and_then(Value::as_int).unwrap_or(0);
            let candidates = env.read(&Key::new(format!("geo:{cell}"))).await?;
            env.compute().await;
            Ok(candidates)
        });
        // Leaf: rates for up to three candidate hotels.
        runtime.register("travel.rate", async move |env, input| {
            let mut rates = Vec::new();
            for h in input.get("hotels").and_then(Value::as_list).unwrap_or(&[]) {
                if let Some(h) = h.as_int() {
                    rates.push(env.read(&hotel_key("rate", h)).await?);
                }
            }
            env.compute().await;
            Ok(Value::list(rates))
        });
        // Leaf: hotel profiles.
        runtime.register("travel.profile", async move |env, input| {
            let mut profiles = Vec::new();
            for h in input.get("hotels").and_then(Value::as_list).unwrap_or(&[]) {
                if let Some(h) = h.as_int() {
                    profiles.push(env.read(&hotel_key("profile", h)).await?);
                }
            }
            Ok(Value::list(profiles))
        });
        // Entry: search = geo → rate → profile.
        runtime.register("travel.search", async move |env, input| {
            let candidates = env.invoke("travel.geo", input.clone()).await?;
            let hotels = Value::map([("hotels", candidates)]);
            let rates = env.invoke("travel.rate", hotels.clone()).await?;
            let profiles = env.invoke("travel.profile", hotels).await?;
            Ok(Value::list(vec![rates, profiles]))
        });
        // Entry: recommendations by rating.
        runtime.register("travel.recommend", async move |env, input| {
            let cell = input.get("cell").and_then(Value::as_int).unwrap_or(0);
            let candidates = env
                .invoke("travel.geo", Value::map([("cell", Value::Int(cell))]))
                .await?;
            let mut best = Value::Null;
            for h in candidates.as_list().unwrap_or(&[]) {
                if let Some(h) = h.as_int() {
                    best = env.read(&hotel_key("rating", h)).await?;
                }
            }
            env.compute().await;
            Ok(best)
        });
        // Leaf: user lookup.
        runtime.register("travel.user", async move |env, input| {
            let user = input.get("user").and_then(Value::as_int).unwrap_or(0);
            let record = env.read(&Key::new(format!("user:{user}"))).await?;
            env.compute().await;
            Ok(record)
        });
        // Leaf: availability check.
        runtime.register("travel.availability", async move |env, input| {
            let hotel = input.get("hotel").and_then(Value::as_int).unwrap_or(0);
            let avail = env.read(&hotel_key("availability", hotel)).await?;
            Ok(avail)
        });
        // Leaf: write the order record.
        runtime.register("travel.order", async move |env, input| {
            let user = input.get("user").and_then(Value::as_int).unwrap_or(0);
            let hotel = input.get("hotel").and_then(Value::as_int).unwrap_or(0);
            let order_id = input.get("order_id").and_then(Value::as_int).unwrap_or(0);
            env.write(
                &Key::new(format!("order:{order_id}")),
                Value::map([("user", Value::Int(user)), ("hotel", Value::Int(hotel))]),
            )
            .await?;
            Ok(Value::Int(order_id))
        });
        // Leaf: decrement stock (read + write).
        runtime.register("travel.update_stock", async move |env, input| {
            let hotel = input.get("hotel").and_then(Value::as_int).unwrap_or(0);
            let key = hotel_key("availability", hotel);
            let rooms = env.read(&key).await?.as_int().unwrap_or(0);
            env.write(&key, Value::Int((rooms - 1).max(0))).await?;
            Ok(Value::Int(rooms - 1))
        });
        // Entry: reserve = user → availability → order → update_stock.
        runtime.register("travel.reserve", async move |env, input| {
            env.invoke("travel.user", input.clone()).await?;
            let avail = env.invoke("travel.availability", input.clone()).await?;
            if avail.as_int().unwrap_or(0) <= 0 {
                return Ok(Value::Bool(false));
            }
            env.invoke("travel.order", input.clone()).await?;
            env.invoke("travel.update_stock", input).await?;
            Ok(Value::Bool(true))
        });
    }

    fn populate(&self, client: &Client) {
        let cells = (self.hotels / 4).max(1);
        for h in 0..self.hotels {
            let h = i64::from(h);
            client.populate(
                hotel_key("rate", h),
                Value::map([("rate", Value::Int(100 + h))]),
            );
            client.populate(
                hotel_key("profile", h),
                Value::map([
                    ("name", Value::str(format!("Hotel {h}"))),
                    ("stars", Value::Int(h % 5)),
                ]),
            );
            client.populate(hotel_key("rating", h), Value::Float((h % 50) as f64 / 10.0));
            client.populate(hotel_key("availability", h), Value::Int(1000));
        }
        for cell in 0..cells {
            // Four hotels per location cell.
            let base = i64::from(cell) * 4;
            let members: Vec<Value> = (base..base + 4)
                .filter(|h| *h < i64::from(self.hotels))
                .map(Value::Int)
                .collect();
            client.populate(Key::new(format!("geo:{cell}")), Value::list(members));
        }
        for u in 0..self.users {
            client.populate(
                Key::new(format!("user:{u}")),
                Value::map([
                    ("name", Value::str(format!("user{u}"))),
                    ("pw", Value::Int(7)),
                ]),
            );
        }
    }

    fn factory(&self) -> RequestFactory {
        let hotels = i64::from(self.hotels);
        let users = i64::from(self.users);
        let cells = i64::from((self.hotels / 4).max(1));
        Rc::new(move |rng, seq| {
            let roll: f64 = rng.random();
            if roll < 0.60 {
                let cell = rng.random_range(0..cells);
                (
                    "travel.search".to_string(),
                    Value::map([("cell", Value::Int(cell))]),
                )
            } else if roll < 0.95 {
                let cell = rng.random_range(0..cells);
                (
                    "travel.recommend".to_string(),
                    Value::map([("cell", Value::Int(cell))]),
                )
            } else {
                let user = rng.random_range(0..users);
                let hotel = rng.random_range(0..hotels);
                (
                    "travel.reserve".to_string(),
                    Value::map([
                        ("user", Value::Int(user)),
                        ("hotel", Value::Int(hotel)),
                        ("order_id", Value::Int(seq as i64)),
                    ]),
                )
            }
        })
    }
}
