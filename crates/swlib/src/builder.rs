//! Builds the complete program image for one (curve × architecture)
//! configuration of the study — the analogue of the paper's compiled,
//! statically linked ECDSA binary (§4.3).
//!
//! Every image exposes the same entry points:
//!
//! | entry            | computes                                        |
//! |------------------|-------------------------------------------------|
//! | `main_sign`      | ECDSA signature from `arg_e`, `arg_d`, `arg_k`  |
//! | `main_verify`    | verification from `arg_e/arg_r/arg_s/arg_q{x,y}`|
//! | `main_scalar_mul`| `arg_k · G` (affine x/y into `out_r`/`out_s`)   |
//! | `main_fmul` …    | micro-entries for differential testing          |
//!
//! plus the RAM argument buffers named in [`Suite`]. The builder binds
//! the architecture's field-routine labels, lays out curve constants in
//! ROM (pre-converted to the Montgomery domain for Monte), and reserves
//! all scratch RAM.

use crate::billie_glue;
use crate::f2m::{self, F2mEeaBufs};
use crate::fp::{self, EeaBufs};
use crate::gen::Gen;
use crate::monte_glue;
use crate::point::{self, Family, PointBufs, PointCfg};
use crate::xdh;
use ule_curves::params::{Curve, CurveId, CurveKind};
use ule_isa::asm::Program;
use ule_isa::reg::Reg;
use ule_mpmath::mont::Montgomery;
use ule_mpmath::mp::Mp;

/// The four hardware/software configurations of the design space
/// (Fig 1.1).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Arch {
    /// Pure software on Pete (no cache, no extensions) — §5.1.
    Baseline,
    /// Pete with the prime/binary ISA extensions — §5.2.
    IsaExt,
    /// Pete + the Monte GF(p) microcoded accelerator — §5.4.
    Monte,
    /// Pete + the Billie GF(2^m) accelerator — §5.5.
    Billie,
}

impl Arch {
    /// Every architecture, in Fig 1.1 order.
    pub const ALL: [Arch; 4] = [Arch::Baseline, Arch::IsaExt, Arch::Monte, Arch::Billie];

    /// Display name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            Arch::Baseline => "Baseline",
            Arch::IsaExt => "ISA Ext",
            Arch::Monte => "w/ Monte",
            Arch::Billie => "w/ Billie",
        }
    }

    /// The metrics-schema spelling (`"isa_ext"`, …).
    pub fn key(self) -> &'static str {
        match self {
            Arch::Baseline => "baseline",
            Arch::IsaExt => "isa_ext",
            Arch::Monte => "monte",
            Arch::Billie => "billie",
        }
    }
}

impl std::str::FromStr for Arch {
    type Err = String;

    /// Any spelling of a key under [`ule_curves::params::spells`].
    fn from_str(s: &str) -> Result<Self, String> {
        ule_curves::params::parse_name("arch", s, &Arch::ALL, Arch::key)
    }
}

/// A built program image plus the metadata the runner needs.
#[derive(Clone, Debug)]
pub struct Suite {
    /// The linked ROM image.
    pub program: Program,
    /// The architecture it was built for.
    pub arch: Arch,
    /// The curve it was built for.
    pub curve_id: CurveId,
    /// Field element width in words.
    pub k: usize,
    /// Group-order width in words.
    pub kn: usize,
}

/// Builds the program image for one configuration.
///
/// # Panics
///
/// Panics on unsupported pairings (Monte is a GF(p) accelerator, Billie a
/// GF(2^m) one — same constraint as the paper's evaluation) or if the
/// generated program fails to link (a builder bug).
pub fn build_suite(curve: &Curve, arch: Arch) -> Suite {
    let id = curve.id();
    if id.is_mont() {
        // The X25519/X448 Montgomery-ladder suite is a separate program
        // image (entry `main_xdh`, no ECDSA protocol layer).
        return build_xdh_suite(curve, arch);
    }
    match (arch, id.is_binary()) {
        (Arch::Monte, true) => panic!("Monte accelerates prime fields only"),
        (Arch::Billie, false) => panic!("Billie accelerates binary fields only"),
        _ => {}
    }
    let k = curve.limbs();
    let kn = curve.n().bit_len().div_ceil(32);
    assert_eq!(k, kn, "the study's curves all have k == kn");

    let mut g = Gen::new();

    // ---- RAM layout -------------------------------------------------
    let kw = k as u32;
    let bufs = PointBufs {
        pt_x: g.a.ram_alloc("pt_x", kw),
        pt_y: g.a.ram_alloc("pt_y", kw),
        pt_z: g.a.ram_alloc("pt_z", kw),
        ft: [
            g.a.ram_alloc("ft1", kw),
            g.a.ram_alloc("ft2", kw),
            g.a.ram_alloc("ft3", kw),
            g.a.ram_alloc("ft4", kw),
            g.a.ram_alloc("ft5", kw),
            g.a.ram_alloc("ft6", kw),
        ],
        tab_x: g.a.ram_alloc("tab_x", 4 * kw),
        tab_y: g.a.ram_alloc("tab_y", 4 * kw),
        two_px: g.a.ram_alloc("two_px", kw),
        two_py: g.a.ram_alloc("two_py", kw),
        sm_k: g.a.ram_alloc("sm_k", kw),
        sm_px: g.a.ram_alloc("sm_px", kw),
        sm_py: g.a.ram_alloc("sm_py", kw),
        sm_outx: g.a.ram_alloc("sm_outx", kw),
        sm_outy: g.a.ram_alloc("sm_outy", kw),
        tw_u1: g.a.ram_alloc("tw_u1", kw),
        tw_u2: g.a.ram_alloc("tw_u2", kw),
        tw_qx: g.a.ram_alloc("tw_qx", kw),
        tw_qy: g.a.ram_alloc("tw_qy", kw),
        tw_pqx: g.a.ram_alloc("tw_pqx", kw),
        tw_pqy: g.a.ram_alloc("tw_pqy", kw),
        tw_pmx: g.a.ram_alloc("tw_pmx", kw),
        tw_pmy: g.a.ram_alloc("tw_pmy", kw),
        tw_nqy: g.a.ram_alloc("tw_nqy", kw),
        tw_outx: g.a.ram_alloc("tw_outx", kw),
        tw_outy: g.a.ram_alloc("tw_outy", kw),
        ecd_t1: g.a.ram_alloc("ecd_t1", kw),
        ecd_t2: g.a.ram_alloc("ecd_t2", kw),
        ecd_t3: g.a.ram_alloc("ecd_t3", kw),
        ecd_x: g.a.ram_alloc("ecd_x", kw),
        arg_e: g.a.ram_alloc("arg_e", kw),
        arg_d: g.a.ram_alloc("arg_d", kw),
        arg_k: g.a.ram_alloc("arg_k", kw),
        arg_r: g.a.ram_alloc("arg_r", kw),
        arg_s: g.a.ram_alloc("arg_s", kw),
        arg_qx: g.a.ram_alloc("arg_qx", kw),
        arg_qy: g.a.ram_alloc("arg_qy", kw),
        out_r: g.a.ram_alloc("out_r", kw),
        out_s: g.a.ram_alloc("out_s", kw),
        out_ok: g.a.ram_alloc("out_ok", 1),
    };
    // extra argument buffers for point micro-entries
    let arg_px = g.a.ram_alloc("arg_px", kw);
    let arg_py = g.a.ram_alloc("arg_py", kw);
    // scratch
    let wide = g.a.ram_alloc("wide", 2 * kw + 2);
    let cios_t = g.a.ram_alloc("cios_t", kw + 2);
    let nm_tmp = g.a.ram_alloc("nm_tmp", kw);
    let eea_int = EeaBufs {
        u: g.a.ram_alloc("eea_u", kw + 1),
        v: g.a.ram_alloc("eea_v", kw + 1),
        x1: g.a.ram_alloc("eea_x1", kw + 1),
        x2: g.a.ram_alloc("eea_x2", kw + 1),
    };

    let family = match curve.kind() {
        CurveKind::Prime(_) => Family::Prime,
        CurveKind::Binary(c) => Family::Binary {
            a_is_one: !c.a().is_zero(),
        },
        CurveKind::Mont(_) => unreachable!("handled above"),
    };
    let cfg = PointCfg {
        family,
        k,
        kn,
        bufs,
    };

    // ---- entry points ----------------------------------------------
    emit_entries(&mut g, &cfg, arg_px, arg_py);

    // ---- architecture / family bindings ----------------------------
    let mont_p = match curve.kind() {
        CurveKind::Prime(c) => Some(Montgomery::new(c.field().modulus())),
        CurveKind::Binary(_) => None,
        CurveKind::Mont(_) => unreachable!("handled above"),
    };
    match (arch, curve.kind()) {
        (Arch::Baseline, CurveKind::Prime(c)) => {
            let acc = g.a.ram_alloc("fred_acc", kw + 2);
            fp::emit_fadd(&mut g, "fadd", k, "const_p");
            fp::emit_fsub(&mut g, "fsub", k, "const_p");
            fp::emit_fmul_os(&mut g, "fmul", k, wide, "fred");
            // fsqr = fmul(a, a)
            g.a.label("fsqr");
            g.a.j("fmul");
            g.a.mov(Reg::A2, Reg::A1); // delay slot
            fp::emit_fred(&mut g, "fred", c.field(), acc, "const_p");
            emit_prime_finv_binding(&mut g);
            emit_noop_sync(&mut g);
            emit_plain_domain(&mut g);
        }
        (Arch::IsaExt, CurveKind::Prime(c)) => {
            let acc = g.a.ram_alloc("fred_acc", kw + 2);
            fp::emit_fadd(&mut g, "fadd", k, "const_p");
            fp::emit_fsub(&mut g, "fsub", k, "const_p");
            fp::emit_fmul_ps_ext(&mut g, "fmul", k, wide, "fred");
            fp::emit_fsqr_ps_ext(&mut g, "fsqr", k, wide, "fred");
            fp::emit_fred(&mut g, "fred", c.field(), acc, "const_p");
            emit_prime_finv_binding(&mut g);
            emit_noop_sync(&mut g);
            emit_plain_domain(&mut g);
        }
        (Arch::Monte, CurveKind::Prime(c)) => {
            let monte_n = g.a.ram_alloc("monte_n", kw);
            let fermat_r = g.a.ram_alloc("fermat_r", kw);
            let fermat_b = g.a.ram_alloc("fermat_b", kw);
            let mont = mont_p.as_ref().expect("prime curve");
            monte_glue::emit_monte_init(&mut g, k, mont.n0_prime(), monte_n);
            monte_glue::emit_monte_field_ops(&mut g);
            let pm2 = c.field().modulus().sub(&Mp::from_u64(2));
            monte_glue::emit_monte_finv(&mut g, pm2.bit_len(), fermat_r, fermat_b);
        }
        (Arch::Baseline, CurveKind::Binary(c)) => {
            let comb = g.a.ram_alloc("comb_table", 16 * (kw + 1));
            let poly = F2mEeaBufs {
                u: g.a.ram_alloc("peea_u", 2 * kw + 1),
                v: g.a.ram_alloc("peea_v", 2 * kw + 1),
                g1: g.a.ram_alloc("peea_g1", 2 * kw + 1),
                g2: g.a.ram_alloc("peea_g2", 2 * kw + 1),
            };
            // fadd and fsub are the same operation in GF(2^m).
            g.a.label("fsub");
            f2m::emit_f2m_add(&mut g, "fadd", k);
            f2m::emit_f2m_mul_comb(&mut g, "fmul", c.field(), comb, wide, "fred");
            f2m::emit_f2m_sqr_table(&mut g, "fsqr", c.field(), wide, "spread_tbl", "fred");
            f2m::emit_f2m_red(&mut g, "fred", c.field(), 2 * k + 1);
            f2m::emit_f2m_eea_inv(&mut g, "finv", c.field(), poly, "fred");
            emit_noop_sync(&mut g);
            emit_plain_domain(&mut g);
        }
        (Arch::IsaExt, CurveKind::Binary(c)) => {
            let poly = F2mEeaBufs {
                u: g.a.ram_alloc("peea_u", 2 * kw + 1),
                v: g.a.ram_alloc("peea_v", 2 * kw + 1),
                g1: g.a.ram_alloc("peea_g1", 2 * kw + 1),
                g2: g.a.ram_alloc("peea_g2", 2 * kw + 1),
            };
            g.a.label("fsub");
            f2m::emit_f2m_add(&mut g, "fadd", k);
            f2m::emit_f2m_mul_ps_ext(&mut g, "fmul", c.field(), wide, "fred");
            f2m::emit_f2m_sqr_ext(&mut g, "fsqr", c.field(), wide, "fred");
            f2m::emit_f2m_red(&mut g, "fred", c.field(), 2 * k + 1);
            f2m::emit_f2m_eea_inv(&mut g, "finv", c.field(), poly, "fred");
            emit_noop_sync(&mut g);
            emit_plain_domain(&mut g);
        }
        (Arch::Billie, CurveKind::Binary(c)) => {
            billie_glue::emit_billie_bindings(&mut g, c.field(), &cfg);
        }
        _ => unreachable!("invalid pairing rejected above"),
    }

    // Shared helpers present in every image.
    emit_fisz(&mut g, k);
    g.a.label("ncopy");
    fp::emit_fcopy(&mut g, "fcopy", k);
    // Protocol arithmetic mod n (on Pete in every configuration, §4.1).
    let n_mont = Montgomery::new(curve.n());
    fp::emit_cios(&mut g, "cios_n", kn, n_mont.n0_prime(), "const_n", cios_t);
    emit_nmul(&mut g, nm_tmp);
    fp::emit_fadd(&mut g, "nadd", kn, "const_n");
    fp::emit_eea_inv(&mut g, "eea_int", kn, eea_int);
    g.a.label("ninv");
    g.a.la(Reg::A2, "const_n");
    g.a.j("eea_int");
    g.a.nop();
    if arch != Arch::Monte && arch != Arch::Billie {
        // empty arch_init
        g.a.label("arch_init");
        g.a.ret();
    }
    if arch == Arch::Billie {
        // arch_init emitted inside billie bindings
    }

    // Point / scalar / ECDSA codegen (shared; Billie overrides the
    // scalar-multiplication internals inside its bindings but reuses the
    // protocol layer).
    point::emit_point_suite(&mut g, &cfg, arch != Arch::Billie);

    // ---- constants --------------------------------------------------
    emit_constants(&mut g, curve, arch, k, kn, mont_p.as_ref(), &n_mont);

    let program = g.a.link("main_sign").expect("suite must link");
    Suite {
        program,
        arch,
        curve_id: id,
        k,
        kn,
    }
}

/// Builds the Montgomery-ladder (X25519/X448) program image: entry
/// `main_xdh` computes the RFC 7748 shared secret from the raw scalar in
/// `arg_k` and the reduced peer `u`-coordinate in `arg_qx` into `out_r`,
/// plus the usual field micro-entries for differential testing.
///
/// # Panics
///
/// Panics when paired with Billie (the X primes live in GF(p)) or if the
/// generated program fails to link.
fn build_xdh_suite(curve: &Curve, arch: Arch) -> Suite {
    let id = curve.id();
    assert!(
        arch != Arch::Billie,
        "Billie accelerates binary fields only"
    );
    let mc = curve.mont();
    let f = mc.field();
    let k = curve.limbs();
    let kn = curve.n().bit_len().div_ceil(32);

    let mut g = Gen::new();

    // ---- RAM layout -------------------------------------------------
    let kw = k as u32;
    let bufs = xdh::XdhBufs {
        arg_k: g.a.ram_alloc("arg_k", kw),
        arg_qx: g.a.ram_alloc("arg_qx", kw),
        arg_qy: g.a.ram_alloc("arg_qy", kw),
        out_r: g.a.ram_alloc("out_r", kw),
        xk: g.a.ram_alloc("xdh_k", kw),
        x1: g.a.ram_alloc("xdh_x1", kw),
        x2: g.a.ram_alloc("xdh_x2", kw),
        z2: g.a.ram_alloc("xdh_z2", kw),
        x3: g.a.ram_alloc("xdh_x3", kw),
        z3: g.a.ram_alloc("xdh_z3", kw),
        t: [
            g.a.ram_alloc("xdh_t1", kw),
            g.a.ram_alloc("xdh_t2", kw),
            g.a.ram_alloc("xdh_t3", kw),
            g.a.ram_alloc("xdh_t4", kw),
            g.a.ram_alloc("xdh_t5", kw),
            g.a.ram_alloc("xdh_t6", kw),
            g.a.ram_alloc("xdh_t7", kw),
            g.a.ram_alloc("xdh_t8", kw),
        ],
    };
    let wide = g.a.ram_alloc("wide", 2 * kw + 2);
    let cfg = xdh::XdhCfg {
        k,
        bits: mc.ladder_bits(),
        bufs,
    };

    // ---- entry points (micro entries; `main_xdh` comes with the suite)
    emit_xdh_entries(&mut g, &bufs);

    // ---- architecture bindings --------------------------------------
    let mont_p = Montgomery::new(f.modulus());
    match arch {
        Arch::Baseline | Arch::IsaExt => {
            let acc = g.a.ram_alloc("fred_acc", kw + 2);
            let eea = EeaBufs {
                u: g.a.ram_alloc("eea_u", kw + 1),
                v: g.a.ram_alloc("eea_v", kw + 1),
                x1: g.a.ram_alloc("eea_x1", kw + 1),
                x2: g.a.ram_alloc("eea_x2", kw + 1),
            };
            fp::emit_fadd(&mut g, "fadd", k, "const_p");
            fp::emit_fsub(&mut g, "fsub", k, "const_p");
            if arch == Arch::IsaExt {
                fp::emit_fmul_ps_ext(&mut g, "fmul", k, wide, "fred");
                fp::emit_fsqr_ps_ext(&mut g, "fsqr", k, wide, "fred");
            } else {
                fp::emit_fmul_os(&mut g, "fmul", k, wide, "fred");
                // fsqr = fmul(a, a)
                g.a.label("fsqr");
                g.a.j("fmul");
                g.a.mov(Reg::A2, Reg::A1); // delay slot
            }
            fp::emit_fred(&mut g, "fred", f, acc, "const_p");
            fp::emit_eea_inv(&mut g, "eea_int", k, eea);
            emit_prime_finv_binding(&mut g);
            emit_noop_sync(&mut g);
            emit_plain_domain(&mut g);
            // a24 multiply: a plain field multiply by the ROM constant.
            g.a.label("fmula24");
            g.a.la(Reg::A2, "const_a24");
            g.a.j("fmul");
            g.a.nop();
            g.a.label("arch_init");
            g.a.ret();
        }
        Arch::Monte => {
            let monte_n = g.a.ram_alloc("monte_n", kw);
            let fermat_r = g.a.ram_alloc("fermat_r", kw);
            let fermat_b = g.a.ram_alloc("fermat_b", kw);
            let xp = mc.prime();
            monte_glue::emit_monte_init_with(
                &mut g,
                k,
                mont_p.n0_prime(),
                monte_n,
                &monte_glue::MONTE_XDH_RAM_CONSTANTS,
                Some((
                    xp.a24() as u32,
                    xp.fold_delta() as u32,
                    xp.fold_second_offset() as u32,
                )),
            );
            monte_glue::emit_monte_field_ops(&mut g);
            monte_glue::emit_monte_fmula24(&mut g);
            let pm2 = f.modulus().sub(&Mp::from_u64(2));
            monte_glue::emit_monte_finv(&mut g, pm2.bit_len(), fermat_r, fermat_b);
        }
        Arch::Billie => unreachable!("rejected above"),
    }

    // Shared helpers and the ladder itself.
    emit_fisz(&mut g, k);
    fp::emit_fcopy(&mut g, "fcopy", k);
    xdh::emit_xdh_suite(&mut g, &cfg);

    // ---- constants --------------------------------------------------
    let p = f.modulus();
    g.a.data_label("const_p");
    g.a.words(&p.to_limbs(k));
    if arch == Arch::Monte {
        for (ram, _) in monte_glue::MONTE_XDH_RAM_CONSTANTS {
            g.a.ram_alloc(ram, kw);
        }
        g.a.data_label("rom_one");
        g.a.words(&mont_p.to_mont(&Mp::one().to_limbs(k)));
        g.a.data_label("rom_zero");
        g.a.words(&vec![0u32; k]);
        g.a.data_label("rom_r2p");
        g.a.words(mont_p.r2());
        g.a.data_label("rom_intone");
        g.a.words(&Mp::one().to_limbs(k));
        g.a.data_label("const_pm2");
        g.a.words(&p.sub(&Mp::from_u64(2)).to_limbs(k));
    } else {
        g.a.data_label("const_one");
        g.a.words(&Mp::one().to_limbs(k));
        g.a.data_label("const_zero");
        g.a.words(&vec![0u32; k]);
        g.a.data_label("const_a24");
        g.a.words(&Mp::from_u64(mc.prime().a24()).to_limbs(k));
    }

    let program = g.a.link("main_xdh").expect("xdh suite must link");
    Suite {
        program,
        arch,
        curve_id: id,
        k,
        kn,
    }
}

/// The field micro-entries of the XDH image (same labels and marshalling
/// as the ECDSA suites, so the differential fuzzer drives both kinds of
/// image identically).
fn emit_xdh_entries(g: &mut Gen, b: &xdh::XdhBufs) {
    let ft = b.t;
    let (aq_x, aq_y, out_r) = (b.arg_qx, b.arg_qy, b.out_r);
    for (entry, op, binary_op) in [
        ("main_fmul", "fmul", true),
        ("main_fadd", "fadd", true),
        ("main_fsub", "fsub", true),
        ("main_fsqr", "fsqr", false),
        ("main_finv", "finv", false),
    ] {
        g.a.label(entry);
        g.a.jal("arch_init");
        g.a.nop();
        g.a.li(Reg::A0, ft[0] as i64);
        g.a.li(Reg::A1, aq_x as i64);
        g.a.jal("fin");
        g.a.nop();
        if binary_op {
            g.a.li(Reg::A0, ft[1] as i64);
            g.a.li(Reg::A1, aq_y as i64);
            g.a.jal("fin");
            g.a.nop();
        }
        g.a.li(Reg::A0, ft[2] as i64);
        g.a.li(Reg::A1, ft[0] as i64);
        if binary_op {
            g.a.li(Reg::A2, ft[1] as i64);
        }
        g.a.jal(op);
        g.a.nop();
        g.a.li(Reg::A0, out_r as i64);
        g.a.li(Reg::A1, ft[2] as i64);
        g.a.jal("fout");
        g.a.nop();
        g.a.brk(0);
    }
}

/// The `main_*` entry points (each: `arch_init`, marshal arguments, call,
/// `break`).
fn emit_entries(g: &mut Gen, cfg: &PointCfg, arg_px: u32, arg_py: u32) {
    let b = &cfg.bufs;
    let call = |g: &mut Gen, entry: &str, body: &dyn Fn(&mut Gen)| {
        g.a.label(entry);
        g.a.jal("arch_init");
        g.a.nop();
        body(g);
        g.a.brk(0);
    };
    call(g, "main_sign", &|g| {
        g.a.jal("ecdsa_sign");
        g.a.nop();
    });
    call(g, "main_verify", &|g| {
        g.a.jal("ecdsa_verify");
        g.a.nop();
    });
    let (sm_k, sm_px, sm_py) = (b.sm_k, b.sm_px, b.sm_py);
    let (arg_k, out_r, out_s) = (b.arg_k, b.out_r, b.out_s);
    let (sm_outx, sm_outy) = (b.sm_outx, b.sm_outy);
    call(g, "main_scalar_mul", &move |g| {
        // k*G with G from ROM; result converted out of the domain.
        {
            let (dst, src) = (sm_k, arg_k);
            g.a.li(Reg::A0, dst as i64);
            g.a.li(Reg::A1, src as i64);
            g.a.jal("ncopy");
            g.a.nop();
        }
        g.a.li(Reg::A0, sm_px as i64);
        g.a.la(Reg::A1, "const_gx");
        g.a.jal("fcopy");
        g.a.nop();
        g.a.li(Reg::A0, sm_py as i64);
        g.a.la(Reg::A1, "const_gy");
        g.a.jal("fcopy");
        g.a.nop();
        g.a.jal("scalar_mul");
        g.a.nop();
        g.a.li(Reg::A0, out_r as i64);
        g.a.li(Reg::A1, sm_outx as i64);
        g.a.jal("fout");
        g.a.nop();
        g.a.li(Reg::A0, out_s as i64);
        g.a.li(Reg::A1, sm_outy as i64);
        g.a.jal("fout");
        g.a.nop();
    });
    // Micro entries: field ops on arg_qx/arg_qy -> out_r (through the
    // domain conversions, so they exercise the whole plumbing).
    let ft = b.ft;
    let (aq_x, aq_y) = (b.arg_qx, b.arg_qy);
    for (entry, op, binary_op) in [
        ("main_fmul", "fmul", true),
        ("main_fadd", "fadd", true),
        ("main_fsub", "fsub", true),
        ("main_fsqr", "fsqr", false),
        ("main_finv", "finv", false),
    ] {
        let out_r = b.out_r;
        call(g, entry, &move |g| {
            g.a.li(Reg::A0, ft[0] as i64);
            g.a.li(Reg::A1, aq_x as i64);
            g.a.jal("fin");
            g.a.nop();
            if binary_op {
                g.a.li(Reg::A0, ft[1] as i64);
                g.a.li(Reg::A1, aq_y as i64);
                g.a.jal("fin");
                g.a.nop();
            }
            g.a.li(Reg::A0, ft[2] as i64);
            g.a.li(Reg::A1, ft[0] as i64);
            if binary_op {
                g.a.li(Reg::A2, ft[1] as i64);
            }
            g.a.jal(op);
            g.a.nop();
            g.a.li(Reg::A0, out_r as i64);
            g.a.li(Reg::A1, ft[2] as i64);
            g.a.jal("fout");
            g.a.nop();
        });
    }
    // Point micro entries: P in arg_px/arg_py (affine), optional second
    // affine point in arg_qx/arg_qy; result out_r/out_s (normal domain).
    let (pt_in_x, pt_in_y) = (arg_px, arg_py);
    for (entry, do_add) in [("main_pdbl", false), ("main_padd", true)] {
        let (out_r, out_s) = (b.out_r, b.out_s);
        let (tqx, tqy) = (b.tw_qx, b.tw_qy);
        let (f5, f6) = (ft[4], ft[5]);
        call(g, entry, &move |g| {
            // fin both coordinates of P into ft buffers, lift, operate.
            g.a.li(Reg::A0, f5 as i64);
            g.a.li(Reg::A1, pt_in_x as i64);
            g.a.jal("fin");
            g.a.nop();
            g.a.li(Reg::A0, f6 as i64);
            g.a.li(Reg::A1, pt_in_y as i64);
            g.a.jal("fin");
            g.a.nop();
            g.a.li(Reg::A0, f5 as i64);
            g.a.li(Reg::A1, f6 as i64);
            g.a.jal("pt_set_affine");
            g.a.nop();
            if do_add {
                g.a.li(Reg::A0, tqx as i64);
                g.a.li(Reg::A1, aq_x as i64);
                g.a.jal("fin");
                g.a.nop();
                g.a.li(Reg::A0, tqy as i64);
                g.a.li(Reg::A1, aq_y as i64);
                g.a.jal("fin");
                g.a.nop();
                g.a.li(Reg::A0, tqx as i64);
                g.a.li(Reg::A1, tqy as i64);
                g.a.jal("padd");
                g.a.nop();
            } else {
                g.a.jal("pdbl");
                g.a.nop();
            }
            g.a.li(Reg::A0, f5 as i64);
            g.a.li(Reg::A1, f6 as i64);
            g.a.jal("pt_to_affine");
            g.a.nop();
            g.a.li(Reg::A0, out_r as i64);
            g.a.li(Reg::A1, f5 as i64);
            g.a.jal("fout");
            g.a.nop();
            g.a.li(Reg::A0, out_s as i64);
            g.a.li(Reg::A1, f6 as i64);
            g.a.jal("fout");
            g.a.nop();
        });
    }
    // Twin-mult micro entry: u1 = arg_e, u2 = arg_d, Q = arg_qx/arg_qy.
    {
        let (u1, u2, e, d) = (b.tw_u1, b.tw_u2, b.arg_e, b.arg_d);
        let (tqx, tqy, ox, oy) = (b.tw_qx, b.tw_qy, b.tw_outx, b.tw_outy);
        let (out_r, out_s) = (b.out_r, b.out_s);
        call(g, "main_twin_mul", &move |g| {
            for (dst, src) in [(u1, e), (u2, d)] {
                g.a.li(Reg::A0, dst as i64);
                g.a.li(Reg::A1, src as i64);
                g.a.jal("ncopy");
                g.a.nop();
            }
            for (dst, src) in [(tqx, aq_x), (tqy, aq_y)] {
                g.a.li(Reg::A0, dst as i64);
                g.a.li(Reg::A1, src as i64);
                g.a.jal("fin");
                g.a.nop();
            }
            g.a.jal("twin_mul");
            g.a.nop();
            for (dst, src) in [(out_r, ox), (out_s, oy)] {
                g.a.li(Reg::A0, dst as i64);
                g.a.li(Reg::A1, src as i64);
                g.a.jal("fout");
                g.a.nop();
            }
        });
    }
    // Protocol-arithmetic micro entry: out_r = arg_e * arg_d mod n.
    {
        let (e, d, out_r) = (b.arg_e, b.arg_d, b.out_r);
        call(g, "main_nmul", &move |g| {
            g.a.li(Reg::A0, out_r as i64);
            g.a.li(Reg::A1, e as i64);
            g.a.li(Reg::A2, d as i64);
            g.a.jal("nmul");
            g.a.nop();
        });
    }
}

/// `finv` binding for the software prime tiers: the generic integer EEA
/// with the field prime as modulus.
fn emit_prime_finv_binding(g: &mut Gen) {
    g.a.label("finv");
    g.a.la(Reg::A2, "const_p");
    g.a.j("eea_int");
    g.a.nop();
}

/// `fsync` binding when no accelerator is attached.
fn emit_noop_sync(g: &mut Gen) {
    g.a.label("fsync");
    g.a.ret();
}

/// `fin`/`fout` bindings when no Montgomery domain is in play: plain
/// copies.
fn emit_plain_domain(g: &mut Gen) {
    g.a.label("fin");
    g.a.j("fcopy");
    g.a.nop();
    g.a.label("fout");
    g.a.j("fcopy");
    g.a.nop();
}

/// `fisz`: `v0 = 1` iff the k-word buffer at `a0` is all zero;
/// synchronizes with the accelerator first.
fn emit_fisz(g: &mut Gen, k: usize) {
    let loop_l = g.sym("fisz_l");
    let nz = g.sym("fisz_nz");
    let done = g.sym("fisz_done");
    g.a.label("fisz");
    g.a.addiu(Reg::SP, Reg::SP, -16);
    g.a.sw(Reg::RA, 12, Reg::SP);
    g.a.sw(Reg::S0, 8, Reg::SP);
    g.a.mov(Reg::S0, Reg::A0);
    g.a.jal("fsync");
    g.a.nop();
    g.a.li(Reg::T9, k as i64);
    g.a.mov(Reg::T4, Reg::S0);
    g.a.li(Reg::V0, 1);
    g.a.label(&loop_l);
    g.a.lw(Reg::T0, 0, Reg::T4);
    g.a.bne(Reg::T0, Reg::ZERO, &nz);
    g.a.addiu(Reg::T4, Reg::T4, 4); // delay
    g.a.addiu(Reg::T9, Reg::T9, -1);
    g.a.bne(Reg::T9, Reg::ZERO, &loop_l);
    g.a.nop();
    g.a.b(&done);
    g.a.nop();
    g.a.label(&nz);
    g.a.li(Reg::V0, 0);
    g.a.label(&done);
    g.a.lw(Reg::RA, 12, Reg::SP);
    g.a.lw(Reg::S0, 8, Reg::SP);
    g.a.addiu(Reg::SP, Reg::SP, 16);
    g.a.ret();
}

/// `nmul`: full modular multiplication modulo the group order, as two
/// CIOS passes (`t = a·b·R^{-1}`, then `t·R^2·R^{-1} = a·b`).
fn emit_nmul(g: &mut Gen, nm_tmp: u32) {
    g.a.label("nmul");
    g.a.addiu(Reg::SP, Reg::SP, -8);
    g.a.sw(Reg::RA, 4, Reg::SP);
    g.a.sw(Reg::S0, 0, Reg::SP);
    g.a.mov(Reg::S0, Reg::A0);
    g.a.li(Reg::A0, nm_tmp as i64);
    g.a.jal("cios_n");
    g.a.nop();
    g.a.mov(Reg::A0, Reg::S0);
    g.a.li(Reg::A1, nm_tmp as i64);
    g.a.la(Reg::A2, "const_r2n");
    g.a.jal("cios_n");
    g.a.nop();
    g.a.lw(Reg::RA, 4, Reg::SP);
    g.a.lw(Reg::S0, 0, Reg::SP);
    g.a.addiu(Reg::SP, Reg::SP, 8);
    g.a.ret();
}

/// Lays out every ROM constant the suite references.
fn emit_constants(
    g: &mut Gen,
    curve: &Curve,
    arch: Arch,
    k: usize,
    kn: usize,
    mont_p: Option<&Montgomery>,
    n_mont: &Montgomery,
) {
    let in_domain = arch == Arch::Monte;
    let conv = |v: &Mp| -> Vec<u32> {
        if in_domain {
            let m = mont_p.expect("Monte implies a prime curve");
            m.to_mont(&v.to_limbs(k))
        } else {
            v.to_limbs(k)
        }
    };
    match curve.kind() {
        CurveKind::Prime(c) => {
            g.a.data_label("const_p");
            g.a.words(&c.field().modulus().to_limbs(k));
            if in_domain {
                // Monte's DMA only reaches the shared RAM, so everything
                // a field operation may name lives in RAM buffers that
                // `arch_init` populates from these ROM images.
                let m = mont_p.expect("prime");
                for (ram, _) in crate::monte_glue::MONTE_RAM_CONSTANTS {
                    g.a.ram_alloc(ram, k as u32);
                }
                g.a.data_label("rom_gx");
                g.a.words(&conv(&c.generator().x().expect("finite").to_mp()));
                g.a.data_label("rom_gy");
                g.a.words(&conv(&c.generator().y().expect("finite").to_mp()));
                g.a.data_label("rom_one");
                g.a.words(&conv(&Mp::one()));
                g.a.data_label("rom_zero");
                g.a.words(&vec![0u32; k]);
                g.a.data_label("rom_r2p");
                g.a.words(m.r2());
                g.a.data_label("rom_intone");
                g.a.words(&Mp::one().to_limbs(k));
                g.a.data_label("const_pm2");
                g.a.words(&c.field().modulus().sub(&Mp::from_u64(2)).to_limbs(k));
            } else {
                g.a.data_label("const_gx");
                g.a.words(&conv(&c.generator().x().expect("finite").to_mp()));
                g.a.data_label("const_gy");
                g.a.words(&conv(&c.generator().y().expect("finite").to_mp()));
                g.a.data_label("const_one");
                g.a.words(&conv(&Mp::one()));
            }
        }
        CurveKind::Binary(c) => {
            g.a.data_label("const_gx");
            g.a.words(&c.generator().x().expect("finite").to_mp().to_limbs(k));
            g.a.data_label("const_gy");
            g.a.words(&c.generator().y().expect("finite").to_mp().to_limbs(k));
            g.a.data_label("const_one");
            g.a.words(&Mp::one().to_limbs(k));
            g.a.data_label("const_b");
            g.a.words(&c.b().to_mp().to_limbs(k));
            g.a.data_label("spread_tbl");
            g.a.words(&f2m::spread_table_words());
        }
        CurveKind::Mont(_) => unreachable!("the XDH suite emits its own constants"),
    }
    if !in_domain {
        g.a.data_label("const_zero");
        g.a.words(&vec![0u32; k]);
    }
    g.a.data_label("const_n");
    g.a.words(&curve.n().to_limbs(kn));
    g.a.data_label("const_r2n");
    g.a.words(n_mont.r2());
}
