//! Correctness outside the timed window: every reply is compared
//! bit-for-bit (counts and makespan bits; epoch and fingerprint for
//! writes) with a local reference — an in-process [`Registry`] that
//! applied the same `register`/`report` lines in the same order and
//! solves with [`fpm_serve::engine::solve`]. The reference solves over
//! the registry's raw models, not its shared evaluation memos: the memo
//! must replay bit-exact values, so the check also covers it, and the
//! reference does not inherit the memo's slowdown.

use std::collections::HashMap;
use std::sync::Arc;

use fpm_serve::engine::{solve, Plan};
use fpm_serve::json::Json;
use fpm_serve::protocol::{parse_request, ClusterRef, ClusterRefView, Request};
use fpm_serve::registry::{MachineModel, SharedCost};
use fpm_serve::Registry;

/// What the reference says a reply must carry.
#[derive(Debug, Clone, PartialEq)]
pub enum Expected {
    Register {
        fingerprint: String,
    },
    Plan {
        fingerprint: String,
        counts: Vec<u64>,
        makespan_bits: u64,
    },
    Report {
        accepted: bool,
        epoch: u64,
        fingerprint: String,
    },
    Error {
        code: String,
    },
}

/// Plan-cache key of the reference: `(fingerprint, epoch, n, algorithm)`.
type Key = (String, u64, u64, (u8, u64));

/// The single-node reference model.
pub struct Reference {
    registry: Registry,
    plans: HashMap<Key, Result<Arc<Plan>, String>>,
    /// Memo-free models per `(fingerprint, epoch)`.
    models: HashMap<(String, u64), Vec<SharedCost>>,
}

impl Default for Reference {
    fn default() -> Self {
        Self {
            registry: Registry::new(1 << 16),
            plans: HashMap::new(),
            models: HashMap::new(),
        }
    }
}

impl Reference {
    /// Applies one request line and returns what its reply must say.
    pub fn apply(&mut self, line: &str) -> Expected {
        let envelope = match parse_request(line) {
            Ok(envelope) => envelope,
            Err((_, e)) => {
                return Expected::Error {
                    code: e.code.to_owned(),
                }
            }
        };
        match envelope.request {
            Request::Register { cluster, spec } => match self.registry.register(&cluster, &spec) {
                Ok(c) => Expected::Register {
                    fingerprint: c.fingerprint.clone(),
                },
                Err(e) => Expected::Error {
                    code: e.code.to_owned(),
                },
            },
            Request::Report {
                target,
                machine,
                x,
                elapsed_us,
            } => match self.registry.report(view(&target), machine, x, elapsed_us) {
                Ok(o) => Expected::Report {
                    accepted: o.accepted,
                    epoch: o.epoch,
                    fingerprint: o.fingerprint,
                },
                Err(e) => Expected::Error {
                    code: e.code.to_owned(),
                },
            },
            Request::Partition {
                target,
                n,
                algorithm,
                ..
            } => {
                let cluster = match self.registry.lookup(&target) {
                    Ok(c) => c,
                    Err(e) => {
                        return Expected::Error {
                            code: e.code.to_owned(),
                        }
                    }
                };
                let state = (cluster.fingerprint.clone(), cluster.epoch);
                let funcs = self.models.entry(state).or_insert_with(|| {
                    cluster
                        .models
                        .iter()
                        .map(|m| match m {
                            MachineModel::Speed(m) => Arc::new(m.clone()) as SharedCost,
                            MachineModel::Cost(m) => Arc::new(m.clone()) as SharedCost,
                        })
                        .collect()
                });
                let key = (
                    cluster.fingerprint.clone(),
                    cluster.epoch,
                    n,
                    algorithm.key_tag(),
                );
                let plan = self
                    .plans
                    .entry(key)
                    .or_insert_with(|| solve(algorithm, n, funcs).map_err(|e| e.code.to_owned()));
                match plan {
                    Ok(plan) => Expected::Plan {
                        fingerprint: cluster.fingerprint.clone(),
                        counts: plan.counts.clone(),
                        makespan_bits: plan.makespan.to_bits(),
                    },
                    Err(code) => Expected::Error { code: code.clone() },
                }
            }
            other => Expected::Error {
                code: format!("unchecked verb {other:?}"),
            },
        }
    }

    /// The reference's current `(fingerprint, epoch)` of a cluster.
    pub fn state(&self, cluster: &str) -> Option<(String, u64)> {
        let c = self
            .registry
            .lookup(&ClusterRef::Name(cluster.to_owned()))
            .ok()?;
        Some((c.fingerprint.clone(), c.epoch))
    }
}

/// The borrowed form of a parsed cluster reference, as `Registry::report`
/// takes it.
pub fn view(target: &ClusterRef) -> ClusterRefView<'_> {
    match target {
        ClusterRef::Name(n) => ClusterRefView::Name(n),
        ClusterRef::Fingerprint(f) => ClusterRefView::Fingerprint(f),
    }
}

/// Outcome of checking one reply.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// The reply matches the reference.
    Ok,
    /// The server answered with an error the reference also expected.
    ExpectedError,
    /// The reply disagrees with the reference.
    Mismatch(String),
}

/// Compares one raw reply line with the reference's expectation.
pub fn check_reply(expected: &Expected, reply: &str) -> Verdict {
    let v = match Json::parse(reply.trim_end()) {
        Ok(v) => v,
        Err(e) => return Verdict::Mismatch(format!("unparsable reply ({e}): {reply}")),
    };
    let ok = v.get("ok").and_then(Json::as_bool) == Some(true);
    let str_field = |k: &str| {
        v.get(k)
            .and_then(Json::as_str)
            .unwrap_or_default()
            .to_owned()
    };
    match expected {
        Expected::Error { code } => {
            if !ok && str_field("error") == *code {
                Verdict::ExpectedError
            } else {
                Verdict::Mismatch(format!("expected error {code}, got {reply}"))
            }
        }
        _ if !ok => Verdict::Mismatch(format!("unexpected error reply: {reply}")),
        Expected::Register { fingerprint } => {
            if str_field("fingerprint") == *fingerprint {
                Verdict::Ok
            } else {
                Verdict::Mismatch(format!("register fingerprint differs: {reply}"))
            }
        }
        Expected::Report {
            accepted,
            epoch,
            fingerprint,
        } => {
            let got = (
                v.get("accepted").and_then(Json::as_bool),
                v.get("epoch").and_then(Json::as_u64),
                str_field("fingerprint"),
            );
            if got == (Some(*accepted), Some(*epoch), fingerprint.clone()) {
                Verdict::Ok
            } else {
                Verdict::Mismatch(format!(
                    "report expected accepted={accepted} epoch={epoch} fp={fingerprint}, got {reply}"
                ))
            }
        }
        Expected::Plan {
            fingerprint,
            counts,
            makespan_bits,
        } => {
            let got_counts: Option<Vec<u64>> = v
                .get("counts")
                .and_then(Json::as_array)
                .and_then(|a| a.iter().map(Json::as_u64).collect());
            let got_makespan = v.get("makespan").and_then(Json::as_f64).map(f64::to_bits);
            if got_counts.as_ref() != Some(counts) {
                Verdict::Mismatch(format!("counts differ from the reference: {reply}"))
            } else if got_makespan != Some(*makespan_bits) {
                Verdict::Mismatch(format!(
                    "makespan bits differ: expected {}, got {reply}",
                    f64::from_bits(*makespan_bits)
                ))
            } else if str_field("fingerprint") != *fingerprint {
                Verdict::Mismatch(format!("fingerprint differs: {reply}"))
            } else {
                Verdict::Ok
            }
        }
    }
}

/// Tally of a checked run.
#[derive(Debug, Default, Clone)]
pub struct Tally {
    pub checked: u64,
    pub error_replies: u64,
    pub mismatches: u64,
    pub first_mismatch: Option<String>,
}

impl Tally {
    pub fn record(&mut self, verdict: Verdict, times: u64) {
        self.checked += times;
        match verdict {
            Verdict::Ok => {}
            Verdict::ExpectedError => self.error_replies += times,
            Verdict::Mismatch(why) => {
                self.mismatches += times;
                self.first_mismatch.get_or_insert(why);
            }
        }
    }

    pub fn merge(&mut self, other: Tally) {
        self.checked += other.checked;
        self.error_replies += other.error_replies;
        self.mismatches += other.mismatches;
        if self.first_mismatch.is_none() {
            self.first_mismatch = other.first_mismatch;
        }
    }

    pub fn failed(&self) -> u64 {
        self.error_replies + self.mismatches
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::{partition_line, register_line, report_line};
    use fpm_core::planner::AlgorithmId;

    fn models() -> Vec<(String, Vec<(f64, f64)>)> {
        vec![
            ("a".into(), vec![(1e3, 200.0), (1e6, 180.0), (1e8, 20.0)]),
            ("b".into(), vec![(1e3, 100.0), (1e6, 90.0), (1e8, 10.0)]),
            ("c".into(), vec![(1e3, 50.0), (1e6, 45.0), (1e8, 5.0)]),
        ]
    }

    /// Renders the reply a correct server would send for `expected`.
    fn render(expected: &Expected) -> String {
        match expected {
            Expected::Plan {
                fingerprint,
                counts,
                makespan_bits,
            } => {
                let counts: Vec<String> = counts.iter().map(u64::to_string).collect();
                format!(
                    r#"{{"ok":true,"verb":"partition","algorithm":"combined","fingerprint":"{fingerprint}","counts":[{}],"makespan":{},"steps":3,"cached":false}}"#,
                    counts.join(","),
                    fpm_serve::json::JsonNum(f64::from_bits(*makespan_bits))
                )
            }
            Expected::Report {
                accepted,
                epoch,
                fingerprint,
            } => format!(
                r#"{{"ok":true,"verb":"report","accepted":{accepted},"reason":"x","epoch":{epoch},"machine":"a","fingerprint":"{fingerprint}"}}"#
            ),
            other => panic!("not rendered: {other:?}"),
        }
    }

    #[test]
    fn correct_replies_pass_and_corrupted_replies_are_caught() {
        let mut reference = Reference::default();
        let reg = reference.apply(&register_line("c", &models(), &[false, true, false]));
        assert!(matches!(reg, Expected::Register { .. }), "{reg:?}");
        let expected = reference.apply(&partition_line("c", 3_000_000, AlgorithmId::Combined));
        let good = render(&expected);
        assert_eq!(check_reply(&expected, &good), Verdict::Ok);

        // One count moved between machines: same total, wrong plan.
        let Expected::Plan {
            fingerprint,
            counts,
            makespan_bits,
        } = expected.clone()
        else {
            panic!("expected a plan, got {expected:?}");
        };
        let mut moved = counts.clone();
        moved[0] += 1;
        moved[1] -= 1;
        let bad = render(&Expected::Plan {
            fingerprint: fingerprint.clone(),
            counts: moved,
            makespan_bits,
        });
        assert!(matches!(check_reply(&expected, &bad), Verdict::Mismatch(_)));

        // The makespan off by one ulp.
        let bad = render(&Expected::Plan {
            fingerprint: fingerprint.clone(),
            counts: counts.clone(),
            makespan_bits: makespan_bits + 1,
        });
        assert!(matches!(check_reply(&expected, &bad), Verdict::Mismatch(_)));

        // An error reply where a plan was due, and a truncated frame.
        let err = r#"{"ok":false,"error":"overloaded","message":"request queue full"}"#;
        assert!(matches!(check_reply(&expected, err), Verdict::Mismatch(_)));
        assert!(matches!(
            check_reply(&expected, &good[..good.len() / 2]),
            Verdict::Mismatch(_)
        ));
    }

    #[test]
    fn report_epochs_are_checked() {
        let mut reference = Reference::default();
        reference.apply(&register_line("c", &models(), &[false, false, false]));
        // Two agreeing out-of-band observations: pending, then a refit.
        let line = report_line("c", 0, 5e5, 5e5 / 120.0 * 1e6);
        let first = reference.apply(&line);
        let second = reference.apply(&line);
        let Expected::Report {
            accepted: true,
            epoch: 1,
            ..
        } = second
        else {
            panic!("second report should refit: {first:?} then {second:?}");
        };
        assert_eq!(check_reply(&second, &render(&second)), Verdict::Ok);
        let Expected::Report { fingerprint, .. } = second.clone() else {
            unreachable!()
        };
        let stale = render(&Expected::Report {
            accepted: true,
            epoch: 0,
            fingerprint,
        });
        assert!(matches!(check_reply(&second, &stale), Verdict::Mismatch(_)));
    }
}
