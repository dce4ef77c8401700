//! Hierarchy ablation: measure the Figure 1 collapse-bias scenarios, then
//! push beyond the paper with a deeper tree.
//!
//! ```sh
//! cargo run --release --example hierarchy_ablation
//! ```

use wwwcache::originserver::{FilePopulation, FileRecord};
use wwwcache::proxycache::HierarchyTopology;
use wwwcache::simcore::SimTime;
use wwwcache::webcache::experiments::hierarchy_bias::{collapse_is_conservative, run_figure1};
use wwwcache::webcache::experiments::report::render_figure1;
use wwwcache::webcache::hierarchy::HierarchySim;
use wwwcache::webcache::ProtocolSpec;

fn main() {
    // --- The paper's four scenarios --------------------------------------
    let rows = run_figure1();
    println!("{}", render_figure1(&rows));
    for row in &rows {
        assert!(collapse_is_conservative(row));
    }
    println!(
        "Invariant verified: wherever collapsing the hierarchy changes the\n\
         time-based : invalidation traffic ratio, it biases AGAINST the\n\
         time-based protocols — the paper's single-cache results are\n\
         conservative.\n"
    );

    // --- Extension: how invalidation flooding scales with tree depth -----
    println!("extension: invalidation flood cost vs tree shape (one change, no accesses)");
    println!("{:<28}{:>8}{:>16}", "topology", "caches", "flood bytes");
    for (label, fanout, depth) in [
        ("chain depth 3", 1usize, 3usize),
        ("binary tree depth 3", 2, 3),
        ("4-ary tree depth 2", 4, 2),
        ("4-ary tree depth 3", 4, 3),
    ] {
        let mut topo = HierarchyTopology::new();
        let mut frontier = vec![topo.root()];
        for _ in 0..depth {
            let mut next = Vec::new();
            for node in frontier {
                for _ in 0..fanout {
                    next.push(topo.add_child(node));
                }
            }
            frontier = next;
        }
        let caches = topo.len();
        let mut pop = FilePopulation::new();
        let mut rec = FileRecord::new("/obj", SimTime::ZERO, 10_000);
        rec.push_modification(SimTime::from_secs(100), 10_000);
        let f = pop.add(rec);
        let mut sim = HierarchySim::new(topo, pop, ProtocolSpec::Invalidation);
        sim.preload(f, SimTime::ZERO);
        sim.modify(f, SimTime::from_secs(100));
        println!("{label:<28}{caches:>8}{:>16}", sim.traffic().total_bytes());
    }
    println!(
        "\nEvery cache in the tree pays per change whether or not anyone\n\
         asks for the object again — the scalability burden §1 describes."
    );
}
