//! The verdicts other tools consume, pinned: every app's commute-matrix
//! cells, its universal commuters and its derived shard plan (components
//! and routes). perf's `hybrid` workload runs on the message board's
//! matrix, fig5 and fig6 install the derived Sudoku plan, and mc's
//! `--matrix` reads the archive; a change to an argument domain or a
//! footprint that flips any of them fails here, in `cargo test`, rather
//! than later in the benchmark or the model checker. A change that means
//! to flip one edits `PINNED` in the same commit.

use guesstimate_analysis::harness::analyze_all_apps;
use guesstimate_analysis::shard::format_shard_plan;
use guesstimate_core::ShardPlan;

const PINNED: &str = "\
Sudoku  clear update
clear       ?      ?
update      ?      ?
universal commuters: []
shard plan — Sudoku
  component 0 [unkeyed]: fixed/*, grid/*
  clear -> local(component 0)
  update -> local(component 0)

EventPlanner   create_event join leave register_user sign_in sign_out
create_event              X    X     ?             C       ?        ?
join                      X    X     X             ?       ?        ?
leave                     ?    X     X             ?       ?        ?
register_user             C    ?     ?             X       X        ?
sign_in                   ?    ?     ?             X       X        X
sign_out                  ?    ?     ?             ?       X        X
universal commuters: []
shard plan — EventPlanner
  component 0 [unkeyed]: events, events/{0}, events/*, events/*/attendees, users/{0}
  create_event -> local(component 0)
  join -> local(component 0)
  leave -> local(component 0)
  register_user -> local(component 0)
  sign_in -> local(component 0)
  sign_out -> local(component 0)

MessageBoard  create_topic like post
create_topic             X    C    X
like                     C    C    C
post                     X    C    X
universal commuters: [\"like\"]
shard plan — MessageBoard
  component 0 [keyed]: likes/{0}
  component 1 [keyed]: topics/{0}
  create_topic -> local(component 1, key arg0)
  like -> local(component 0, key arg0)
  post -> local(component 1, key arg0)

CarPool      add_vehicle board disembark
add_vehicle            X     X         ?
board                  X     X         X
disembark              ?     X         X
universal commuters: []
shard plan — CarPool
  component 0 [keyed]: {0}, {1}, {1}/riders
  add_vehicle -> local(component 0, key arg0)
  board -> cross-shard
  disembark -> local(component 0, key arg1)

Auction     bid close list_item
bid           X     X         X
close         X     X         X
list_item     X     X         X
universal commuters: []
shard plan — Auction
  component 0 [keyed]: {0}, {0}/best, {0}/open
  bid -> local(component 0, key arg0)
  close -> local(component 0, key arg0)
  list_item -> local(component 0, key arg0)

MicroBlog follow heart post register unfollow
follow         X     C    C        X        X
heart          C     C    C        C        C
post           C     C    ?        X        C
register       X     C    X        X        C
unfollow       X     C    C        C        X
universal commuters: [\"heart\"]
shard plan — MicroBlog
  component 0 [unkeyed]: follows/{0}, posts, users
  component 1 [keyed]: hearts/{0}
  follow -> local(component 0)
  heart -> local(component 1, key arg0)
  post -> local(component 0)
  register -> local(component 0)
  unfollow -> local(component 0)
";

#[test]
fn matrices_commuters_and_shard_plans_are_pinned() {
    let mut rendered = String::new();
    for a in analyze_all_apps() {
        let r = &a.report;
        let mut plan = ShardPlan::new();
        plan.types
            .insert(r.type_name.clone(), a.derive_shard_plan());
        rendered += &format!(
            "{}universal commuters: {:?}\n{}\n",
            r.format_matrix(),
            r.universal_commuters(),
            format_shard_plan(&plan)
        );
    }
    let rendered = rendered.trim_end().to_owned() + "\n";
    if rendered != PINNED {
        let line = rendered
            .lines()
            .zip(PINNED.lines())
            .position(|(a, b)| a != b)
            .unwrap_or(0);
        panic!(
            "verdicts drifted from PINNED at line {}:\n{rendered}",
            line + 1
        );
    }
}
