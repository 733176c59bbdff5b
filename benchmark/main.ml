(* The end-to-end benchmark of the pad server and the capture/apply CLI.

   main.exe [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]
            [--trace-dir DIR] [--json FILE]
   main.exe --calibrate N [--seed N] [--json FILE]
   main.exe --compare BASE.json NEW.json
   main.exe --smoke

   Run from the repository root. BENCHMARK.json names the workloads
   and metrics; the last line of standard output is one JSON object
   holding them. See README.md for what each workload and metric is. *)

module Json = Si_obs.Json

(* --- BENCHMARK.json ---------------------------------------------------- *)

type metric = { name : string; unit_ : string; higher : bool; bound : float }

type spec = {
  run_seconds : int;
  workloads : string list;
  end_to_end : metric list;
  per_layer : metric list;
}

let read_spec path =
  let fail msg = failwith (Printf.sprintf "%s: %s" path msg) in
  let j =
    match Json.of_string (In_channel.with_open_bin path In_channel.input_all) with
    | Ok j -> j
    | Error e -> fail e
    | exception Sys_error e -> fail e
  in
  let field name obj = match Json.mem name obj with Some v -> v | None -> fail ("no " ^ name) in
  let str name obj = Option.get (Json.str (field name obj)) in
  let metrics key =
    List.map
      (fun m ->
        {
          name = str "name" m;
          unit_ = str "unit" m;
          higher = str "better" m = "higher";
          bound = Option.value (Option.bind (Json.mem "bound" m) Json.number) ~default:0.;
        })
      (Option.get (Json.list (field key j)))
  in
  {
    run_seconds = Option.get (Json.int (field "run_seconds" j));
    workloads = List.map (str "name") (Option.get (Json.list (field "workloads" j)));
    end_to_end = metrics "end_to_end";
    per_layer = metrics "per_layer";
  }

(* --- one workload ------------------------------------------------------ *)

type result = {
  workload : string;
  reps : int;
  attempted : int;
  failed : int;
  errors : string list;
  metrics : (string * float * float list) list;
      (** Name, reported value, and the samples it came from. *)
}

(* Timing metrics come in short windows and report the mean of the
   three best: other tenants of a shared machine only ever slow a
   window down, by up to half, and come and go within seconds, so the
   best windows track the program's own speed and move least between
   runs. Set-up time and memory report the median over reps. *)
let aggregate spec (reps : Workloads.rep list) =
  let higher name = List.exists (fun m -> m.name = name && m.higher) spec.end_to_end in
  let names f = List.sort_uniq compare (List.concat_map (fun r -> List.map fst (f r)) reps) in
  let windowed =
    List.map
      (fun n ->
        let xs = List.concat_map (fun (r : Workloads.rep) -> Option.value (List.assoc_opt n r.windows) ~default:[]) reps in
        (n, Stats.best ~k:3 ~higher:(higher n) xs, xs))
      (names (fun r -> r.windows))
  in
  let per_rep =
    List.map
      (fun n ->
        let xs = List.filter_map (fun (r : Workloads.rep) -> List.assoc_opt n r.values) reps in
        (n, Stats.median xs, xs))
      (names (fun r -> r.values))
  in
  windowed @ per_rep

(* Fixed-size reps until [seconds] have passed, at least [min_reps] of
   them: every rep does the same work, so a slower build does fewer
   reps, never less work per rep. No rep starts after 120 s, so a run
   on a much slower build still ends within its time limit. *)
let measure spec env workload ~seconds ~min_reps =
  let prepared = Workloads.prepare env workload in
  let t0 = Proc.now_ns () in
  let rec go k acc =
    let elapsed = float_of_int (Proc.now_ns () - t0) /. 1e9 in
    if (k >= min_reps && elapsed >= seconds) || (k >= 1 && elapsed >= 120.) then List.rev acc
    else go (k + 1) (Workloads.rep env prepared k :: acc)
  in
  let reps = go 0 [] in
  {
    workload;
    reps = List.length reps;
    attempted = List.fold_left (fun n (r : Workloads.rep) -> n + r.attempted) 0 reps;
    failed = List.fold_left (fun n (r : Workloads.rep) -> n + r.failed) 0 reps;
    errors = List.concat_map (fun (r : Workloads.rep) -> r.errors) reps;
    metrics = aggregate spec reps;
  }

let trace env workload =
  let prepared = Workloads.prepare env workload in
  let values, attempted, failed, errors = Workloads.layers env prepared in
  {
    workload;
    reps = 1;
    attempted;
    failed;
    errors;
    metrics = List.map (fun (n, v) -> (n, v, [ v ])) values;
  }

let value r name = List.find_map (fun (n, v, _) -> if n = name then Some v else None) r.metrics

(* A full-size traced run fails when the layers' spans leave more than
   a tenth of request time unattributed. The smoke run does not judge
   this: its replays last milliseconds, so one GC pause outside every
   span would decide it. *)
let attributed r =
  match value r "trace.unattributed_frac" with
  | Some g when g > 0.1 ->
      {
        r with
        failed = r.failed + 1;
        errors =
          r.errors
          @ [ Printf.sprintf "layer spans leave %.1f%% of request time unattributed" (100. *. g) ];
      }
  | _ -> r

(* --- output ------------------------------------------------------------ *)

let correct r = r.failed = 0 && r.errors = []

(* The result line: every metric of [metrics], by name, with its unit;
   with [zero_missing], a layer the workload never crossed reads 0. *)
let result_json r metrics ~zero_missing =
  Json.Obj
    [
      ("correct", Json.Bool (correct r));
      ("attempted", Json.Int (max 1 r.attempted));
      ("failed", Json.Int r.failed);
      ( "metrics",
        Json.Obj
          (List.map
             (fun m ->
               let v =
                 match value r m.name with
                 | Some v -> v
                 | None when zero_missing -> 0.
                 | None -> failwith (Printf.sprintf "%s: no value for %s" r.workload m.name)
               in
               (m.name, Json.Obj [ ("value", Json.Float v); ("unit", Json.String m.unit_) ]))
             metrics) );
    ]

let print_table r metrics =
  Printf.printf "%s: %d rep(s), %d request(s), %d failed\n" r.workload r.reps r.attempted r.failed;
  List.iter (fun e -> Printf.printf "  error: %s\n" e) r.errors;
  let known = List.map (fun m -> m.name) metrics in
  let line tag (n, v, xs) unit_ =
    let s = Stats.summarize xs in
    Printf.printf "  %-36s %14.4f %-8s" (tag ^ n) v unit_;
    if s.n > 1 then
      Printf.printf " [%d samples: q1 %.4f, median %.4f, q3 %.4f]" s.n s.q1 s.med s.q3;
    print_newline ()
  in
  List.iter
    (fun m ->
      List.iter (fun ((n, _, _) as x) -> if n = m.name then line "" x m.unit_) r.metrics)
    metrics;
  List.iter (fun ((n, _, _) as x) -> if not (List.mem n known) then line "(diag) " x "") r.metrics

(* A results file holds one or more passes over the workloads. *)
let pass_json ~seed results =
  Json.Obj
    [
      ("seed", Json.Int seed);
      ( "workloads",
        Json.Obj
          (List.map
             (fun r ->
               ( r.workload,
                 Json.Obj
                   [
                     ("correct", Json.Bool (correct r));
                     ("reps", Json.Int r.reps);
                     ("attempted", Json.Int r.attempted);
                     ("failed", Json.Int r.failed);
                     ("errors", Json.List (List.map (fun e -> Json.String e) r.errors));
                     ( "metrics",
                       Json.Obj
                         (List.map
                            (fun (n, v, xs) ->
                              let s = Stats.summarize xs in
                              ( n,
                                Json.Obj
                                  [
                                    ("value", Json.Float v);
                                    ("samples_q1", Json.Float s.q1);
                                    ("samples_median", Json.Float s.med);
                                    ("samples_q3", Json.Float s.q3);
                                    ("samples", Json.Int s.n);
                                  ] ))
                            r.metrics) );
                   ] ))
             results) );
    ]

let write_json path passes =
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc
        (Json.to_string ~pretty:true (Json.Obj [ ("passes", Json.List passes) ])))

(* --- compare ----------------------------------------------------------- *)

let pass_workload workload pass = Option.bind (Json.mem "workloads" pass) (Json.mem workload)

(* The reported value of one (workload, metric) in each pass; None
   where a pass lacks it. *)
let pass_values passes workload metric =
  List.map
    (fun pass ->
      Option.bind (pass_workload workload pass) (fun w ->
          Option.bind (Json.mem "metrics" w) (fun m ->
              Option.bind (Json.mem metric m) (fun m ->
                  Option.bind (Json.mem "value" m) Json.number))))
    passes

(* Why a pass's run of a workload cannot be trusted, if it cannot. *)
let pass_broken workload pass =
  match pass_workload workload pass with
  | None -> Some "not run"
  | Some w -> (
      match (Json.mem "correct" w, Option.bind (Json.mem "failed" w) Json.int) with
      | Some (Json.Bool true), Some 0 -> None
      | Some (Json.Bool true), Some n -> Some (Printf.sprintf "%d failed" n)
      | Some (Json.Bool false), _ -> Some "incorrect"
      | _ -> Some "no correct/failed fields")

type verdict = Improved | Unchanged | Regressed | Unresolved

let verdict_name = function
  | Improved -> "improved"
  | Unchanged -> "unchanged"
  | Regressed -> "regressed"
  | Unresolved -> "unresolved"

(* [worse] > 0 means NEW is worse than BASE, as a share of BASE. Where
   the spread between one side's passes exceeds the bound the pair is
   unresolved, unless every NEW pass reads better (or worse) than every
   BASE pass. *)
let judge m base news =
  let b = Stats.summarize base and n = Stats.summarize news in
  let worse = (n.med -. b.med) /. Float.abs b.med *. if m.higher then -1. else 1. in
  let better x y = if m.higher then x > y else x < y in
  let all_better = List.for_all (fun x -> List.for_all (fun y -> better x y) base) news in
  let all_worse = List.for_all (fun x -> List.for_all (fun y -> better y x) base) news in
  let v =
    if Float.max (Stats.spread b) (Stats.spread n) > m.bound then
      if all_better then Improved else if all_worse then Regressed else Unresolved
    else if worse > m.bound then Regressed
    else if -.worse > m.bound then Improved
    else Unchanged
  in
  (v, worse, b, n)

let compare_files ?(quiet = false) spec base_path new_path =
  let passes path =
    match Json.of_string (In_channel.with_open_bin path In_channel.input_all) with
    | Ok j -> Option.value (Option.bind (Json.mem "passes" j) Json.list) ~default:[]
    | Error e -> failwith (path ^ ": " ^ e)
  in
  let base = passes base_path and news = passes new_path in
  let regressed = ref false in
  let say fmt = Printf.ksprintf (fun s -> if not quiet then print_endline s) fmt in
  (* A NEW pass that failed requests, answered wrongly, or lacks a
     metric BASE has is a regression, whatever its timings. *)
  List.iter
    (fun w ->
      if List.exists (fun p -> pass_workload w p <> None) base then
        List.iteri
          (fun i p ->
            Option.iter
              (fun why ->
                regressed := true;
                say "%-10s new pass %d: %s  regressed" w (i + 1) why)
              (pass_broken w p))
          news;
      List.iter
        (fun m ->
          let bv = List.filter_map Fun.id (pass_values base w m.name) in
          let nv = pass_values news w m.name in
          if bv = [] then ()
          else if nv = [] || List.mem None nv then begin
            regressed := true;
            say "%-10s %-16s missing from a new pass  regressed" w m.name
          end
          else
            let v, worse, b, n = judge m bv (List.filter_map Fun.id nv) in
            if v = Regressed then regressed := true;
            say "%-10s %-16s base %14.4f  new %14.4f  %+7.1f%% worse  bound %3.0f%%  %s" w m.name
              b.med n.med (100. *. worse) (100. *. m.bound) (verdict_name v))
        spec.end_to_end)
    spec.workloads;
  if !regressed then 1 else 0

(* --- entry ------------------------------------------------------------- *)

let usage () =
  prerr_endline
    "usage: main.exe [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]\n\
    \                [--trace-dir DIR] [--json FILE]\n\
    \       main.exe --calibrate N [--seed N] [--json FILE]\n\
    \       main.exe --compare BASE.json NEW.json\n\
    \       main.exe --smoke";
  exit 2

type opts = {
  mutable which : string;
  mutable seed : int;
  mutable seconds : float option;
  mutable traced : bool;
  mutable json : string option;
  mutable calibrate : int option;
  mutable compare : (string * string) option;
  mutable smoke : bool;
  mutable trace_dir : string;
}

let parse argv =
  let o =
    {
      which = "all";
      seed = 2001;
      seconds = None;
      traced = false;
      json = None;
      calibrate = None;
      compare = None;
      smoke = false;
      trace_dir = "_bench/trace";
    }
  in
  let int s = match int_of_string_opt s with Some n -> n | None -> usage () in
  let rec go = function
    | [] -> ()
    | "--workload" :: w :: rest -> o.which <- w; go rest
    | "--seed" :: n :: rest -> o.seed <- int n; go rest
    | "--seconds" :: s :: rest ->
        o.seconds <- Some (match float_of_string_opt s with Some f -> f | None -> usage ());
        go rest
    | "--trace" :: t :: rest -> o.traced <- int t <> 0; go rest
    | "--json" :: f :: rest -> o.json <- Some f; go rest
    | "--calibrate" :: n :: rest -> o.calibrate <- Some (int n); go rest
    | "--compare" :: a :: b :: rest -> o.compare <- Some (a, b); go rest
    | "--smoke" :: rest -> o.smoke <- true; go rest
    | "--trace-dir" :: d :: rest -> o.trace_dir <- d; go rest
    | _ -> usage ()
  in
  go (List.tl (Array.to_list argv));
  o

(* Paths are relative to the repository root, where runs start. *)
let cli = "_build/default/bin/slimpad_cli.exe"
let work = "_bench"

let env o ~sizes ~seed =
  {
    Workloads.cli;
    work = Filename.concat work (Printf.sprintf "run-%d" (Unix.getpid ()));
    trace_dir = o.trace_dir;
    sizes;
    seed;
  }

let with_env o ~sizes ~seed f =
  let e = env o ~sizes ~seed in
  Gen.mkdir_p e.work;
  let r = f e in
  Gen.rm_rf e.work;
  r

let run_pass o spec ~sizes ~seed ~seconds ~min_reps workloads =
  with_env o ~sizes ~seed (fun e ->
      List.map
        (fun w ->
          let r = measure spec e w ~seconds ~min_reps in
          print_table r spec.end_to_end;
          r)
        workloads)

(* Small sizes, one rep: every workload path, every answer check and
   the traced run, with no timing thresholds. Also checks that
   BENCHMARK.json names every metric printed, and that --compare
   passes an identical copy and fails a 1.3x slowdown. *)
let smoke o spec =
  let sizes = Gen.smoke in
  let results = run_pass o spec ~sizes ~seed:o.seed ~seconds:0. ~min_reps:1 spec.workloads in
  let traced =
    with_env o ~sizes ~seed:o.seed (fun e -> List.map (trace e) spec.workloads)
  in
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  List.iter
    (fun (r : result) ->
      if not (correct r) then problem "%s: %d failed: %s" r.workload r.failed (String.concat "; " r.errors))
    (results @ traced);
  let named = List.map (fun m -> m.name) in
  let printed (r : result) = List.map (fun (n, _, _) -> n) r.metrics in
  (* Diagnostics: tails, per-kind latencies and sample counts, and the
     captivity commands' own times and bundle size. *)
  let diagnostic n =
    List.exists (Filename.check_suffix n) [ "_p99_us"; "_p50_us"; "samples"; "_s"; "_bytes" ]
  in
  List.iter
    (fun r ->
      List.iter
        (fun n ->
          if not (List.mem n (named spec.end_to_end) || diagnostic n) then
            problem "%s prints %s, which BENCHMARK.json does not name" r.workload n)
        (printed r);
      List.iter
        (fun n -> if not (List.mem n (printed r)) then problem "%s: no value for %s" r.workload n)
        (named spec.end_to_end))
    results;
  List.iter
    (fun r ->
      List.iter
        (fun n ->
          if not (List.mem n (named spec.per_layer)) then
            problem "%s prints layer metric %s, which BENCHMARK.json does not name" r.workload n)
        (printed r))
    traced;
  let path = Filename.concat work (Printf.sprintf "smoke-%d.json" (Unix.getpid ())) in
  write_json path [ pass_json ~seed:o.seed results ];
  (* Copies of the result with lookup changed by [f]. *)
  let variant name f =
    let p = path ^ "." ^ name in
    write_json p
      [ pass_json ~seed:o.seed (List.map (fun r -> if r.workload = "lookup" then f r else r) results) ];
    p
  in
  let latency = "latency_p50_us" in
  let cases =
    [
      ("an identical copy", path, true);
      ( "a 1.3x slowdown",
        variant "slower" (fun r ->
            {
              r with
              metrics =
                List.map (fun (n, v, s) -> if n = latency then (n, v *. 1.3, s) else (n, v, s)) r.metrics;
            }),
        false );
      ("a failed request", variant "failing" (fun r -> { r with failed = 1 }), false);
      ( "a missing metric",
        variant "missing" (fun r ->
            { r with metrics = List.filter (fun (n, _, _) -> n <> latency) r.metrics }),
        false );
    ]
  in
  List.iter
    (fun (what, p, passes) ->
      if (compare_files ~quiet:true spec path p = 0) <> passes then
        problem "--compare %s %s" (if passes then "failed" else "passed") what;
      if p <> path then Sys.remove p)
    cases;
  Sys.remove path;
  List.iter (Printf.printf "smoke: %s\n") (List.rev !problems);
  Printf.printf "smoke: %s\n" (if !problems = [] then "ok" else "FAILED");
  if !problems = [] then 0 else 1

let main () =
  let o = parse Sys.argv in
  let spec = read_spec "BENCHMARK.json" in
  let seconds = Option.value o.seconds ~default:(float_of_int spec.run_seconds) in
  Si_obs.Clock.set Proc.now_ns;
  match (o.compare, o.calibrate, o.smoke) with
  | Some (a, b), _, _ -> compare_files spec a b
  | None, _, true -> smoke o spec
  | None, Some n, false ->
      let passes =
        List.init n (fun i ->
            let seed = o.seed + i in
            pass_json ~seed
              (run_pass o spec ~sizes:Gen.full ~seed ~seconds ~min_reps:3 spec.workloads))
      in
      Option.iter (fun f -> write_json f passes) o.json;
      0
  | None, None, false ->
      let workloads =
        if o.which = "all" then spec.workloads
        else if List.mem o.which spec.workloads then [ o.which ]
        else usage ()
      in
      if o.traced then begin
        let results =
          with_env o ~sizes:Gen.full ~seed:o.seed (fun e ->
              List.map
                (fun w ->
                  let r = attributed (trace e w) in
                  print_table r spec.per_layer;
                  r)
                workloads)
        in
        (match results with
        | [ r ] -> print_endline (Json.to_string (result_json r spec.per_layer ~zero_missing:true))
        | _ -> ());
        0
      end
      else begin
        let results =
          run_pass o spec ~sizes:Gen.full ~seed:o.seed ~seconds ~min_reps:3 workloads
        in
        Option.iter (fun f -> write_json f [ pass_json ~seed:o.seed results ]) o.json;
        (match results with
        | [ r ] -> print_endline (Json.to_string (result_json r spec.end_to_end ~zero_missing:false))
        | rs ->
            print_endline
              (Json.to_string
                 (Json.Obj
                    (List.map (fun r -> (r.workload, result_json r spec.end_to_end ~zero_missing:false)) rs))));
        0
      end

let () =
  match main () with
  | code -> exit code
  | exception e ->
      Proc.kill_all ();
      prerr_endline ("benchmark: " ^ Printexc.to_string e);
      exit 2
