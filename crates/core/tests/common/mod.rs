//! The crash-retry loop the core crate's integration tests share.

use std::time::Duration;

use halfmoon::{Client, Env, InvocationSpec};
use hm_common::{HmResult, InstanceId, NodeId, Value};

/// The function node the tests' attempts run on.
pub const NODE: NodeId = NodeId(0);

/// The first attempt of `id`, on [`NODE`] with `Value::Null` input.
pub fn spec(id: InstanceId) -> InvocationSpec {
    InvocationSpec::new(id, NODE)
}

/// Runs attempts `spec.attempt`, `spec.attempt + 1`, … of one SSF on
/// `spec.input` until one ends in anything but a crash — the retry
/// contract every serverless platform provides (§3). Each retry first
/// sleeps `retry_delay`; `None` retries at once, without yielding.
pub async fn run_ssf(
    client: Client,
    mut spec: InvocationSpec,
    retry_delay: Option<Duration>,
    body: impl AsyncFn(&mut Env, Value) -> HmResult<Value>,
) -> HmResult<Value> {
    loop {
        match Env::run(&client, spec.clone(), &body).await {
            Err(e) if e.is_crash() => {
                spec.attempt += 1;
                assert!(spec.attempt < 200, "unbounded retry loop");
                if let Some(delay) = retry_delay {
                    client.ctx().sleep(delay).await;
                }
            }
            done => return done,
        }
    }
}
