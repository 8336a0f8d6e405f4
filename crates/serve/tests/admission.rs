//! Admission-time rejection of malformed requests.
//!
//! Non-finite or inverted region bounds, non-finite risk thresholds and a
//! region of the wrong width used to panic deep inside encoding — on the
//! caller's thread, out of `serve()`. They are now typed
//! `ServeError::InvalidRequest` errors raised before any obligation is
//! admitted, and the server that rejected them keeps serving.

use dpv_absint::{AbstractDomain, BoxDomain, Interval};
use dpv_core::{Characterizer, InputProperty, RiskCondition, StartRegion, Verdict};
use dpv_nn::{Activation, Network, NetworkBuilder};
use dpv_serve::{ObligationServer, RegionSpec, ServeConfig, ServeError, VerificationRequest};
use rand::rngs::StdRng;
use rand::SeedableRng;

const CUT: usize = 2;
const CUT_WIDTH: usize = 4;

fn perception() -> Network {
    let mut rng = StdRng::seed_from_u64(11);
    NetworkBuilder::new(3)
        .dense(6, &mut rng)
        .activation(Activation::ReLU)
        .dense(CUT_WIDTH, &mut rng)
        .activation(Activation::ReLU)
        .dense(2, &mut rng)
        .build()
}

fn characterizer() -> Characterizer {
    let mut rng = StdRng::seed_from_u64(11 ^ 0xc4a2);
    let head = NetworkBuilder::new(CUT_WIDTH)
        .dense(3, &mut rng)
        .activation(Activation::ReLU)
        .dense(1, &mut rng)
        .build();
    Characterizer::from_network(
        InputProperty::new("p", "synthetic property"),
        CUT,
        head,
        0.9,
    )
    .unwrap()
}

fn healthy_request() -> VerificationRequest {
    VerificationRequest {
        perception: perception(),
        cut_layer: CUT,
        characterizer: characterizer(),
        risks: vec![
            RiskCondition::new("unreachable").output_ge(0, 500.0),
            RiskCondition::new("reachable").output_ge(0, -500.0),
        ],
        region: RegionSpec::Single(StartRegion::Box(BoxDomain::uniform(CUT_WIDTH, -1.0, 1.0))),
        subdivision: 1,
        deadline: None,
    }
}

fn with_region(bounds: Vec<Interval>) -> VerificationRequest {
    VerificationRequest {
        region: RegionSpec::Single(StartRegion::Box(BoxDomain::from_intervals(bounds))),
        ..healthy_request()
    }
}

fn server() -> ObligationServer {
    ObligationServer::builder()
        .config(ServeConfig::with_workers(2))
        .build()
}

/// Asserts `request` is rejected as invalid in `field`, then that the same
/// server still serves the healthy request with the expected verdicts.
fn assert_rejected_then_healthy(
    server: &ObligationServer,
    request: &VerificationRequest,
    field: &str,
) {
    match server.serve(request) {
        Err(ServeError::InvalidRequest { field: got, reason }) => {
            assert_eq!(got, field, "wrong field blamed: {reason}");
            assert!(!reason.is_empty());
        }
        other => panic!("expected InvalidRequest on `{field}`, got {other:?}"),
    }
    let report = server.serve(&healthy_request()).unwrap();
    assert!(matches!(report.verdicts[0].verdict, Verdict::Safe));
    assert!(matches!(report.verdicts[1].verdict, Verdict::Unsafe(_)));
}

#[test]
fn nan_region_bound_is_rejected_not_panicked() {
    // Previously panicked inside admission: in the NaN asserts of interval
    // and LP-variable construction while encoding the template, or in
    // `split_box` first when the request subdivides.
    let server = server();
    let mut bounds = vec![Interval::new(-1.0, 1.0); CUT_WIDTH];
    bounds[2] = Interval {
        lo: f64::NAN,
        hi: 1.0,
    };
    let mut request = with_region(bounds);
    request.subdivision = 0;
    assert_rejected_then_healthy(&server, &request, "region");
    request.subdivision = 1;
    assert_rejected_then_healthy(&server, &request, "region");
}

#[test]
fn infinite_region_bound_is_rejected_not_panicked() {
    // Previously panicked in the big-M ReLU encoding (non-finite
    // pre-activation bounds).
    let server = server();
    let mut bounds = vec![Interval::new(-1.0, 1.0); CUT_WIDTH];
    bounds[0] = Interval::new(-1.0, f64::INFINITY);
    assert_rejected_then_healthy(&server, &with_region(bounds.clone()), "region");
    bounds[0] = Interval::new(f64::NEG_INFINITY, 1.0);
    assert_rejected_then_healthy(&server, &with_region(bounds), "region");
}

#[test]
fn nan_risk_threshold_is_rejected_not_panicked() {
    // Previously panicked in `LinearProgram::add_constraint` (NaN rhs).
    let server = server();
    let mut request = healthy_request();
    request.risks[1] = RiskCondition::new("nan").output_ge(0, f64::NAN);
    assert_rejected_then_healthy(&server, &request, "risks");
    for threshold in [f64::INFINITY, f64::NEG_INFINITY] {
        request.risks[1] = RiskCondition::new("inf").output_le(1, threshold);
        assert_rejected_then_healthy(&server, &request, "risks");
    }
}

#[test]
fn inverted_and_mis_sized_regions_are_rejected() {
    let server = server();
    let mut bounds = vec![Interval::new(-1.0, 1.0); CUT_WIDTH];
    bounds[1] = Interval { lo: 0.5, hi: -0.5 };
    assert_rejected_then_healthy(&server, &with_region(bounds), "region");
    let narrow = with_region(vec![Interval::new(-1.0, 1.0); CUT_WIDTH - 1]);
    assert_rejected_then_healthy(&server, &narrow, "region");
}

#[test]
fn serve_delta_validates_both_requests() {
    let server = server();
    let prior_request = healthy_request();
    let prior = server.serve(&prior_request).unwrap();
    let mut bounds = vec![Interval::new(-1.0, 1.0); CUT_WIDTH];
    bounds[3] = Interval::new(-1.0, f64::INFINITY);
    let bad = with_region(bounds);
    for (old, new) in [(&prior_request, &bad), (&bad, &prior_request)] {
        match server.serve_delta(old, &prior, new) {
            Err(ServeError::InvalidRequest { field, .. }) => assert_eq!(field, "region"),
            other => panic!("expected InvalidRequest, got {other:?}"),
        }
    }
    let delta = server
        .serve_delta(&prior_request, &prior, &prior_request)
        .unwrap();
    assert_eq!(delta.report.verdicts, prior.verdicts);
}
