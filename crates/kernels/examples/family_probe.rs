//! Prints the dispatched wide family and a quick GFLOPS sanity figure.

use shalom_kernels::family::{self, FamilyElem};
use shalom_matrix::Op;
use std::time::Instant;

fn main() {
    let Some(fam) = family::selected_wide_family() else {
        println!("no wide family (128-bit substrate)");
        return;
    };
    println!("selected family: {}", fam.isa.label());
    let (m, n, k) = (96, 96, 96);
    let a = vec![1.0f32; m * k];
    let b = vec![1.0f32; k * n];
    let mut c = vec![0.0f32; m * n];
    let kc = 96;
    let (bce, ate) = family::family_workspace::<f32>(fam, Op::NoTrans, kc, m);
    let mut bc = vec![0.0f32; bce];
    let mut at = vec![0.0f32; ate];
    let reps = 20000;
    let t0 = Instant::now();
    for _ in 0..reps {
        unsafe {
            family::family_gemm::<f32>(
                fam,
                Op::NoTrans,
                Op::NoTrans,
                false,
                m,
                n,
                k,
                1.0,
                a.as_ptr(),
                k,
                b.as_ptr(),
                n,
                0.0,
                c.as_mut_ptr(),
                n,
                kc,
                m,
                bc.as_mut_ptr(),
                at.as_mut_ptr(),
                &|_, body| body(),
            );
        }
    }
    let dt = t0.elapsed().as_secs_f64();
    let gflops = (2.0 * m as f64 * n as f64 * k as f64 * reps as f64) / dt / 1e9;
    let _ = <f32 as FamilyElem>::kernels(fam);
    println!("{}x{}x{} f32: {:.1} GFLOPS", m, n, k, gflops);
    std::hint::black_box(&c);
}
