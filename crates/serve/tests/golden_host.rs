//! Golden-file pin of the host reference arithmetic.
//!
//! Every curve's derived public key, one ECDSA signature with an explicit
//! nonce and its verdicts, plus the serve census (verdicts, batch paths
//! and the group-operation count) of small P-256 and K-163 runs at batch
//! 16 and batch 1. Any drift in the prime- or binary-field arithmetic, the
//! point formulas or the scalar-multiplication algorithms shows up as a
//! line diff here. Regenerate with `ULE_UPDATE_GOLDEN=1 cargo test -p
//! ule-serve --test golden_host`.

use std::fmt::Write as _;
use ule_curves::ecdsa::{self, Keypair, PublicKey, Signature};
use ule_curves::params::CurveId;
use ule_serve::{run_service, ServeConfig};

fn public_hex(key: &PublicKey) -> String {
    let xy = match key {
        PublicKey::Prime(p) => p.x().zip(p.y()).map(|(x, y)| (x.to_mp(), y.to_mp())),
        PublicKey::Binary(p) => p.x().zip(p.y()).map(|(x, y)| (x.to_mp(), y.to_mp())),
    };
    match xy {
        Some((x, y)) => format!("x=0x{} y=0x{}", x.to_hex(), y.to_hex()),
        None => "infinity".to_owned(),
    }
}

fn render() -> String {
    let mut out = String::new();
    for id in CurveId::ALL {
        let curve = id.curve();
        let keys = Keypair::derive(&curve, b"golden-host");
        let e = ecdsa::hash_to_scalar(&curve, b"golden message");
        let k = ecdsa::derive_scalar(&curve, b"golden-host", b"nonce");
        let sig =
            ecdsa::sign_with_nonce(&curve, keys.private(), &e, &k).expect("the golden nonce signs");
        let public = keys.public();
        let ok = ecdsa::verify_prehashed(&curve, &public, &e, &sig);
        let tampered = Signature {
            r: sig.r.clone(),
            s: sig.s.add(&ule_mpmath::Mp::one()).rem(curve.n()),
        };
        let bad = ecdsa::verify_prehashed(&curve, &public, &e, &tampered);
        writeln!(
            out,
            "{} key {} r=0x{} s=0x{} verify={ok} verify_tampered={bad}",
            id.name(),
            public_hex(&public),
            sig.r.to_hex(),
            sig.s.to_hex()
        )
        .unwrap();
    }
    for curve in [CurveId::P256, CurveId::K163] {
        for batch_size in [16, 1] {
            let o = run_service(&ServeConfig {
                requests: 48,
                batch_size,
                shards: 2,
                seed: 0x601d,
                ..ServeConfig::new(curve)
            });
            writeln!(
                out,
                "serve {} batch {batch_size}: accepted={} rejected={} mismatches={} \
                 batches={} rlc_batches={} fallback_batches={} doubles={} adds={} inversions={}",
                curve.name(),
                o.accepted,
                o.rejected,
                o.mismatches,
                o.batches,
                o.rlc_batches,
                o.fallback_batches,
                o.ops.doubles,
                o.ops.adds,
                o.ops.inversions
            )
            .unwrap();
        }
    }
    out
}

#[test]
fn host_arithmetic_matches_golden() {
    let actual = render();
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/host_arith.txt");
    if std::env::var_os("ULE_UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).expect("create golden dir");
        std::fs::write(&path, &actual).expect("write golden");
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .expect("golden host arithmetic (regenerate with ULE_UPDATE_GOLDEN=1)");
    for (a, e) in actual.lines().zip(expected.lines()) {
        assert_eq!(a, e, "host arithmetic drifted");
    }
    assert_eq!(
        actual, expected,
        "host arithmetic drifted: field, point or scalar-multiplication \
         results changed — if intentional, regenerate with \
         ULE_UPDATE_GOLDEN=1 cargo test -p ule-serve --test golden_host"
    );
}
