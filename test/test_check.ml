(* The concurrency sanitizer itself. The seeded tests below build the
   violations the checker exists to find — a two-lock order inversion
   exercised from two domains, fsync under a lock that is not cleared
   for I/O, a declared-rank inversion — and assert they are reported
   with class names and capture stacks. Everything else in the suite
   runs under the same instrumentation, so the first test doubles as
   the sanitizer gate: by the time this file runs (the suite is
   registered last) every other suite has executed, and the graph
   must hold no violation.

   Seeded tests force checking on, then [reset] and restore the prior
   enabled state, so a plain [dune runtest] and an [SI_CHECK=1] run
   see the same assertions. *)

module Check = Si_check
module Lock = Si_check.Lock

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* Run [f] with checking forced on and a clean graph; restore the
   prior state (and a clean graph again) afterwards, so seeded
   violations never leak into later tests. *)
let seeded f =
  let was = Check.enabled () in
  Check.set_enabled true;
  Check.reset ();
  Fun.protect
    ~finally:(fun () ->
      Check.reset ();
      Check.set_enabled was)
    f

let kind_of v = Check.kind_name v.Check.v_kind

let violations_of_kind kind =
  List.filter (fun v -> kind_of v = kind) (Check.violations ())

(* -- the sanitizer gate ------------------------------------------------- *)

(* Registered first in the last suite: every preceding suite has run
   through the instrumented locks by now. Under [SI_CHECK=1] this is
   the whole-testsuite sanitizer assertion. *)
let test_no_violations_from_other_suites () =
  let vs = Check.violations () in
  List.iter
    (fun v -> Printf.eprintf "sanitizer: %s\n%s\n" v.Check.v_message v.Check.v_stack)
    vs;
  check_int "no violations recorded by the rest of the suite" 0 (List.length vs)

(* -- seeded detections -------------------------------------------------- *)

(* The canonical lockdep case: domain 1 takes A then B, domain 2 takes
   B then A. The domains run serially (join between them) — no real
   deadlock is possible — yet the checker reports the inversion,
   because it reasons over the order graph, not over interleavings. *)
let test_seeded_order_inversion () =
  seeded (fun () ->
      let a = Lock.create ~class_:"test.inv.a" in
      let b = Lock.create ~class_:"test.inv.b" in
      let d1 =
        Domain.spawn (fun () ->
            Lock.lock a;
            Lock.lock b;
            Lock.unlock b;
            Lock.unlock a)
      in
      Domain.join d1;
      check_int "clean after first order" 0 (List.length (Check.violations ()));
      let d2 =
        Domain.spawn (fun () ->
            Lock.lock b;
            Lock.lock a;
            Lock.unlock a;
            Lock.unlock b)
      in
      Domain.join d2;
      let invs = violations_of_kind "order-inversion" in
      check_int "one order inversion" 1 (List.length invs);
      let v = List.hd invs in
      check_bool "names class a" true (List.mem "test.inv.a" v.Check.v_classes);
      check_bool "names class b" true (List.mem "test.inv.b" v.Check.v_classes);
      check_bool "carries the acquisition stack" true
        (String.length v.Check.v_stack > 0);
      check_bool "carries the opposing edge's stack" true
        (v.Check.v_other_stack <> None))

(* fsync while holding a lock whose class is not cleared for I/O.
   [server.writer] itself is io_ok by design (its purpose is to
   serialize persistence), so the seeded stand-in models the mistake
   of fsyncing under a plain reader-side lock. *)
let test_seeded_fsync_under_lock () =
  seeded (fun () ->
      let reader = Lock.create ~class_:"test.reader" in
      Lock.with_lock reader (fun () ->
          Check.blocking ~kind:"fsync" (fun () -> ()));
      let vs = violations_of_kind "io-under-lock" in
      check_int "one io-under-lock violation" 1 (List.length vs);
      let v = List.hd vs in
      check_bool "names the blocking op" true (List.mem "fsync" v.Check.v_classes);
      check_bool "names the held class" true
        (List.mem "test.reader" v.Check.v_classes))

(* The same blocking op under a class declared io_ok is allowed. *)
let test_io_ok_allowlist () =
  seeded (fun () ->
      Check.Hierarchy.declare ~io_ok:true ~rank:9000
        ~doc:"test: serializes I/O by design" "test.io_ok";
      let l = Lock.create ~class_:"test.io_ok" in
      Lock.with_lock l (fun () ->
          Check.blocking ~kind:"fsync" (fun () -> ()));
      check_int "io under an io_ok lock is clean" 0
        (List.length (Check.violations ())))

let test_seeded_rank_violation () =
  seeded (fun () ->
      Check.Hierarchy.declare ~rank:9010 ~doc:"test: outer" "test.rank.hi";
      Check.Hierarchy.declare ~rank:9005 ~doc:"test: inner" "test.rank.lo";
      let hi = Lock.create ~class_:"test.rank.hi" in
      let lo = Lock.create ~class_:"test.rank.lo" in
      Lock.with_lock hi (fun () -> Lock.with_lock lo (fun () -> ()));
      let vs = violations_of_kind "rank-violation" in
      check_int "one rank violation" 1 (List.length vs);
      let v = List.hd vs in
      check_bool "names both classes" true
        (List.mem "test.rank.hi" v.Check.v_classes
        && List.mem "test.rank.lo" v.Check.v_classes))

let test_seeded_same_class_nesting () =
  seeded (fun () ->
      let a = Lock.create ~class_:"test.same" in
      let b = Lock.create ~class_:"test.same" in
      Lock.with_lock a (fun () -> Lock.with_lock b (fun () -> ()));
      check_int "one same-class nesting" 1
        (List.length (violations_of_kind "same-class-nesting")))

(* OCaml mutexes are error-checking: the double lock raises. The
   checker must have recorded the violation before the raise. *)
let test_seeded_reentrant_acquire () =
  seeded (fun () ->
      let a = Lock.create ~class_:"test.reentrant" in
      Lock.lock a;
      (try Lock.lock a with Sys_error _ -> ());
      Lock.unlock a;
      check_int "one re-entrant acquire" 1
        (List.length (violations_of_kind "reentrant-acquire")))

(* A violation is reported once, however many times the pattern runs. *)
let test_violation_dedup () =
  seeded (fun () ->
      let reader = Lock.create ~class_:"test.dedup" in
      for _ = 1 to 5 do
        Lock.with_lock reader (fun () ->
            Check.blocking ~kind:"fsync" (fun () -> ()))
      done;
      check_int "five occurrences, one report" 1
        (List.length (Check.violations ())))

(* -- bookkeeping under Condition.wait ----------------------------------- *)

(* [Lock.wait] must pop the frame across the wait and re-push it after:
   an acquisition made after waking still records its edge from the
   waited-on lock, and the hold stack stays balanced. *)
let test_wait_keeps_stack_consistent () =
  seeded (fun () ->
      let l = Lock.create ~class_:"test.wait" in
      let inner = Lock.create ~class_:"test.wait.inner" in
      let cond = Condition.create () in
      let flag = ref false in
      Lock.lock l;
      let d =
        Domain.spawn (fun () ->
            Lock.lock l;
            flag := true;
            Condition.signal cond;
            Lock.unlock l)
      in
      while not !flag do
        Lock.wait cond l
      done;
      (* Still logically holding [l]: this edge must be recorded. *)
      Lock.with_lock inner (fun () -> ());
      Lock.unlock l;
      Domain.join d;
      let r = Check.report () in
      check_bool "edge test.wait -> test.wait.inner recorded" true
        (List.exists
           (fun e ->
             e.Check.e_from = "test.wait" && e.Check.e_to = "test.wait.inner")
           r.Check.r_edges);
      check_int "no violations from the wait" 0
        (List.length r.Check.r_violations))

(* -- contention counting (always on, even disabled) --------------------- *)

let test_contended_counter () =
  let was = Check.enabled () in
  Check.set_enabled false;
  let l = Lock.create ~class_:"test.contended" in
  let entered = Atomic.make false in
  let release = Atomic.make false in
  let holder =
    Domain.spawn (fun () ->
        Lock.lock l;
        Atomic.set entered true;
        while not (Atomic.get release) do
          Domain.cpu_relax ()
        done;
        Lock.unlock l)
  in
  while not (Atomic.get entered) do
    Domain.cpu_relax ()
  done;
  (* The holder only releases once we've set the flag, and we only set
     it from inside a domain that is already blocked on [lock] — so the
     acquisition below is contended by construction. *)
  let waiter =
    Domain.spawn (fun () ->
        Lock.lock l;
        Lock.unlock l)
  in
  (* Give the waiter time to reach the lock, then open the gate. The
     try_lock fast path has already failed by then (and if the race is
     lost, [contended] just counts the retry loop's failure anyway:
     try_lock fails iff the mutex was held). *)
  Unix.sleepf 0.05;
  Atomic.set release true;
  Domain.join holder;
  Domain.join waiter;
  Check.set_enabled was;
  check_bool "contended acquisition counted while disabled" true
    (Lock.contended l >= 1)

(* -- hierarchy sanity --------------------------------------------------- *)

let test_hierarchy_declared () =
  let entries = Check.Hierarchy.entries () in
  let find c = Check.Hierarchy.find c in
  let expect_present c =
    check_bool (c ^ " declared") true (find c <> None)
  in
  List.iter expect_present
    [
      "server.session"; "server.jobq"; "server.job"; "server.writer";
      "wal.registry"; "slimpad.ship.round"; "wal.log"; "wal.ship";
      "slimpad.ship.wake"; "store.writer";
      "atom.table"; "obs.registry"; "obs.span.ring"; "obs.histogram";
    ];
  (* Ranks are strictly increasing in the sorted listing: no ties, so
     "may acquire" is a total order over the declared core. *)
  let rec strictly_increasing = function
    | a :: (b :: _ as rest) ->
        a.Check.Hierarchy.h_rank < b.Check.Hierarchy.h_rank
        && strictly_increasing rest
    | _ -> true
  in
  let core =
    List.filter
      (fun e ->
        not (String.length e.Check.Hierarchy.h_class >= 5
            && String.sub e.Check.Hierarchy.h_class 0 5 = "test."))
      entries
  in
  check_bool "core ranks are unique and ordered" true
    (strictly_increasing core);
  (* The io_ok allowlist is exactly the classes whose documented
     purpose is serializing I/O. *)
  let io_ok =
    core
    |> List.filter (fun e -> e.Check.Hierarchy.h_io_ok)
    |> List.map (fun e -> e.Check.Hierarchy.h_class)
    |> List.sort compare
  in
  Alcotest.(check (list string))
    "io_ok allowlist"
    [ "server.writer"; "slimpad.ship.round"; "wal.log"; "wal.ship" ]
    io_ok

(* -- determinism of graph construction ---------------------------------- *)

(* A lock script is a list of small ints: [n >= 0] acquires lock
   [n mod 4] (skipped when already held — re-entrancy would raise);
   [n < 0] releases the most recently acquired. Running any script
   twice from a clean graph must build the identical graph and report
   the identical violations: detection depends only on the acquisition
   order, never on timing. *)
let run_script script =
  Check.reset ();
  let locks =
    Array.init 4 (fun i -> Lock.create ~class_:(Printf.sprintf "test.det.%d" i))
  in
  let held = ref [] in
  List.iter
    (fun n ->
      if n >= 0 then begin
        let i = n mod 4 in
        if not (List.mem i !held) then begin
          Lock.lock locks.(i);
          held := i :: !held
        end
      end
      else
        match !held with
        | [] -> ()
        | i :: rest ->
            Lock.unlock locks.(i);
            held := rest)
    script;
  List.iter (fun i -> Lock.unlock locks.(i)) !held;
  let r = Check.report () in
  let edges =
    List.map (fun e -> (e.Check.e_from, e.Check.e_to, e.Check.e_count)) r.Check.r_edges
  in
  let vios =
    List.map
      (fun v -> (kind_of v, List.sort compare v.Check.v_classes))
      r.Check.r_violations
    |> List.sort compare
  in
  (edges, vios)

let prop_graph_deterministic =
  QCheck.Test.make ~name:"order graph is a function of the lock script"
    ~count:100
    QCheck.(list_of_size Gen.(int_range 0 20) (int_range (-4) 7))
    (fun script ->
      let was = Check.enabled () in
      Check.set_enabled true;
      Fun.protect
        ~finally:(fun () ->
          Check.reset ();
          Check.set_enabled was)
        (fun () ->
          let first = run_script script in
          let second = run_script script in
          first = second))

(* -- a real workload, clean --------------------------------------------- *)

(* Drive the actual store/interning stack from two domains with
   checking on: the production lock discipline must come out clean,
   and the graph must contain the real store writer -> atom edge. *)
module Columnar = Si_triple.Store.Columnar_store
module Triple = Si_triple.Triple

let test_real_workload_clean () =
  seeded (fun () ->
      let store = Columnar.create () in
      let writer lo =
        Domain.spawn (fun () ->
            for i = lo to lo + 49 do
              ignore
                (Columnar.add store
                   (Triple.make
                      (Printf.sprintf "e%d" i)
                      "p"
                      (Triple.literal (string_of_int i))))
            done)
      in
      let d1 = writer 0 and d2 = writer 50 in
      Domain.join d1;
      Domain.join d2;
      check_int "all triples landed" 100 (Columnar.size store);
      let r = Check.report () in
      check_int "production locking is clean" 0
        (List.length r.Check.r_violations);
      check_bool "store writer -> atom edge observed" true
        (List.exists
           (fun e ->
             e.Check.e_from = "store.writer" && e.Check.e_to = "atom.table")
           r.Check.r_edges))

(* -- report plumbing ---------------------------------------------------- *)

let test_report_json_shape () =
  seeded (fun () ->
      let reader = Lock.create ~class_:"test.json" in
      Lock.with_lock reader (fun () ->
          Check.blocking ~kind:"fsync" (fun () -> ()));
      let json = Check.report_json () in
      let has needle =
        let re = Re.compile (Re.str needle) in
        Re.execp re json
      in
      check_bool "json names the violation kind" true
        (has "\"io-under-lock\"");
      check_bool "json lists edges array" true (has "\"edges\"");
      check_bool "json lists classes array" true (has "\"classes\"");
      check_bool "json carries enabled flag" true (has "\"enabled\": true"))

let suite =
  [
    Alcotest.test_case "sanitizer: rest of suite ran clean" `Quick
      test_no_violations_from_other_suites;
    Alcotest.test_case "seeded: two-domain order inversion reported" `Quick
      test_seeded_order_inversion;
    Alcotest.test_case "seeded: fsync under non-io lock reported" `Quick
      test_seeded_fsync_under_lock;
    Alcotest.test_case "io under a declared io_ok lock is allowed" `Quick
      test_io_ok_allowlist;
    Alcotest.test_case "seeded: declared-rank inversion reported" `Quick
      test_seeded_rank_violation;
    Alcotest.test_case "seeded: same-class nesting reported" `Quick
      test_seeded_same_class_nesting;
    Alcotest.test_case "seeded: re-entrant acquire reported" `Quick
      test_seeded_reentrant_acquire;
    Alcotest.test_case "violations deduplicate" `Quick test_violation_dedup;
    Alcotest.test_case "Lock.wait keeps the held stack consistent" `Quick
      test_wait_keeps_stack_consistent;
    Alcotest.test_case "contention counted even when disabled" `Quick
      test_contended_counter;
    Alcotest.test_case "built-in hierarchy covers every lock class" `Quick
      test_hierarchy_declared;
    QCheck_alcotest.to_alcotest prop_graph_deterministic;
    Alcotest.test_case "store workload under checking is clean" `Quick
      test_real_workload_clean;
    Alcotest.test_case "report_json carries the full report" `Quick
      test_report_json_shape;
  ]
