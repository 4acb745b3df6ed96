//! The five workloads. Each fills the run's report with its end-to-end
//! metrics and, on a traced run, the per-layer metrics of the layers it
//! passes through.

pub mod figures;
pub mod fullstack;
pub mod instant;
pub mod pdes;
pub mod shm;

use crate::harness::Ctx;

/// Run the workload `ctx` names.
pub fn run(ctx: &mut Ctx) {
    match ctx.args.workload {
        "figures_full" => figures::run(ctx),
        "fullstack_ring" => fullstack::run(ctx),
        "pdes_sweep" => pdes::run(ctx),
        "instant_pready" => instant::run(ctx),
        "shm_exchange" => shm::run(ctx),
        other => unreachable!("parse_args admitted unknown workload {other}"),
    }
}
