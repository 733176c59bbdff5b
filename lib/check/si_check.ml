(* Lock-order sanitizer. All internal state is guarded by plain
   mutexes (never by Si_check.Lock — the checker must not check
   itself); a per-domain [busy] bit makes every instrumented
   acquisition performed from inside the checker's own bookkeeping
   (or from the metric sink) degrade to a plain mutex operation, so
   instrumenting the observability layer cannot recurse. *)

let enabled_flag =
  Atomic.make
    (match Sys.getenv_opt "SI_CHECK" with
    | Some ("1" | "true" | "on" | "yes") -> true
    | _ -> false)

let enabled () = Atomic.get enabled_flag
let set_enabled b = Atomic.set enabled_flag b

let clock : (unit -> int) ref =
  ref (fun () -> int_of_float (Sys.time () *. 1e9))

let set_clock f = clock := f
let long_hold_ns = Atomic.make 100_000_000
let set_long_hold_ns n = Atomic.set long_hold_ns (max 0 n)

type sink = {
  s_hold : class_name:string -> ns:int -> unit;
  s_long : class_name:string -> ns:int -> unit;
  s_contended : class_name:string -> unit;
}

let sink : sink option ref = ref None
let set_sink s = sink := s

(* ---------- Lock classes ---------- *)

type cls = {
  id : int;
  name : string;
  mutable rank : int option;
  mutable io_ok : bool;
  contended_total : int Atomic.t;
  long_holds : int Atomic.t;
}

let classes_mu = Mutex.create ()
let classes : (string, cls) Hashtbl.t = Hashtbl.create 32
let by_id : (int, cls) Hashtbl.t = Hashtbl.create 32
let next_class = ref 0

let class_of name =
  Mutex.lock classes_mu;
  let c =
    match Hashtbl.find_opt classes name with
    | Some c -> c
    | None ->
        let c =
          {
            id = !next_class;
            name;
            rank = None;
            io_ok = false;
            contended_total = Atomic.make 0;
            long_holds = Atomic.make 0;
          }
        in
        incr next_class;
        Hashtbl.add classes name c;
        Hashtbl.add by_id c.id c;
        c
  in
  Mutex.unlock classes_mu;
  c

module Hierarchy = struct
  type entry = {
    h_class : string;
    h_rank : int;
    h_io_ok : bool;
    h_doc : string;
  }

  let docs : (string, string) Hashtbl.t = Hashtbl.create 32

  let declare ?(io_ok = false) ~rank ~doc name =
    let c = class_of name in
    c.rank <- Some rank;
    c.io_ok <- io_ok;
    Mutex.lock classes_mu;
    Hashtbl.replace docs name doc;
    Mutex.unlock classes_mu

  let entries () =
    Mutex.lock classes_mu;
    let out =
      Hashtbl.fold
        (fun name c acc ->
          match c.rank with
          | None -> acc
          | Some r ->
              {
                h_class = name;
                h_rank = r;
                h_io_ok = c.io_ok;
                h_doc =
                  (match Hashtbl.find_opt docs name with
                  | Some d -> d
                  | None -> "");
              }
              :: acc)
        classes []
    in
    Mutex.unlock classes_mu;
    List.sort
      (fun a b ->
        match compare a.h_rank b.h_rank with
        | 0 -> String.compare a.h_class b.h_class
        | n -> n)
      out

  let find name =
    List.find_opt (fun e -> String.equal e.h_class name) (entries ())
end

(* The intended hierarchy, in one place. Rank orders acquisition
   (outermost first); [io_ok] marks locks whose documented job is to
   serialize blocking I/O, so `blocking` under them is by design. *)
let () =
  List.iter
    (fun (name, rank, io_ok, doc) -> Hierarchy.declare ~io_ok ~rank ~doc name)
    [
      ("server.session", 10, false, "live connection/session table");
      ("server.jobq", 20, false, "bounded two-class job queue");
      ("server.job", 30, false, "background job state table");
      ( "server.writer",
        40,
        true,
        "serializes pad mutations; persists (fsyncs) the WAL by design" );
      ("wal.registry", 45, false, "in-process single-writer registry");
      ( "slimpad.ship.round",
        50,
        true,
        "one shipping round at a time; pushes segments over transports" );
      ("wal.log", 60, true, "WAL writer; group commit flushes under it");
      ("wal.ship", 70, true, "shipping buffer; seals segments to disk");
      ("slimpad.ship.wake", 80, false, "async shipper wakeup flag");
      ( "store.writer",
        110,
        false,
        "serializes one triple store's writers; readers take no lock" );
      ("atom.table", 120, false, "atom-interning append lock");
      ("obs.registry", 200, false, "metric registry lookups");
      ("obs.span.ring", 210, false, "finished-span ring buffer");
      ("obs.histogram", 220, false, "histogram bucket updates");
    ]

(* ---------- Per-domain held stack ---------- *)

type frame = { f_uid : int; f_cls : cls; mutable f_t0 : int }
type dstate = { mutable frames : frame list; mutable busy : bool }

let dls : dstate Domain.DLS.key =
  Domain.DLS.new_key (fun () -> { frames = []; busy = false })

(* Run [f] with the sink re-entrancy guard up. *)
let guarded d f =
  if d.busy then ()
  else begin
    d.busy <- true;
    Fun.protect ~finally:(fun () -> d.busy <- false) f
  end

(* ---------- Order graph and violations ---------- *)

type kind =
  | Order_inversion
  | Rank_violation
  | Same_class_nesting
  | Reentrant_acquire
  | Io_under_lock

let kind_name = function
  | Order_inversion -> "order-inversion"
  | Rank_violation -> "rank-violation"
  | Same_class_nesting -> "same-class-nesting"
  | Reentrant_acquire -> "reentrant-acquire"
  | Io_under_lock -> "io-under-lock"

type violation = {
  v_kind : kind;
  v_classes : string list;
  v_message : string;
  v_stack : string;
  v_other_stack : string option;
}

type edge_rec = { mutable ec_count : int; ec_stack : string }

let graph_mu = Mutex.create ()
let edges : (int * int, edge_rec) Hashtbl.t = Hashtbl.create 64
let succs : (int, (int, unit) Hashtbl.t) Hashtbl.t = Hashtbl.create 64
let violations_rev : violation list ref = ref []
let vio_seen : (string, unit) Hashtbl.t = Hashtbl.create 16

let capture () =
  Printexc.raw_backtrace_to_string (Printexc.get_callstack 24)

(* Under [graph_mu]. *)
let add_violation ~kind ~classes ~message ~stack ~other =
  let key =
    kind_name kind ^ "|" ^ String.concat "," (List.sort String.compare classes)
  in
  if not (Hashtbl.mem vio_seen key) then begin
    Hashtbl.add vio_seen key ();
    violations_rev :=
      {
        v_kind = kind;
        v_classes = classes;
        v_message = message;
        v_stack = stack;
        v_other_stack = other;
      }
      :: !violations_rev
  end

(* Under [graph_mu]: a path [from ⇝ target] in the edge graph. *)
let find_path from target =
  let seen = Hashtbl.create 16 in
  let rec go n path =
    if n = target then Some (List.rev (n :: path))
    else if Hashtbl.mem seen n then None
    else begin
      Hashtbl.add seen n ();
      match Hashtbl.find_opt succs n with
      | None -> None
      | Some tbl ->
          Hashtbl.fold
            (fun m () acc ->
              match acc with Some _ -> acc | None -> go m (n :: path))
            tbl None
    end
  in
  go from []

let rank_str c =
  match c.rank with
  | Some r -> Printf.sprintf "rank %d" r
  | None -> "unranked"

(* A new acquisition of [b] while [a] is the innermost held lock. *)
let note_edge a b =
  Mutex.lock graph_mu;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock graph_mu)
    (fun () ->
      let key = (a.id, b.id) in
      match Hashtbl.find_opt edges key with
      | Some e -> e.ec_count <- e.ec_count + 1
      | None ->
          let stack = capture () in
          (* Potential deadlock: the opposite order has already run. *)
          (match find_path b.id a.id with
          | Some path ->
              let names =
                List.map
                  (fun id -> (Hashtbl.find by_id id).name)
                  (a.id :: path)
              in
              let other =
                match path with
                | x :: y :: _ ->
                    Option.map
                      (fun e -> e.ec_stack)
                      (Hashtbl.find_opt edges (x, y))
                | _ -> None
              in
              add_violation ~kind:Order_inversion ~classes:[ a.name; b.name ]
                ~message:
                  (Printf.sprintf
                     "lock-order cycle: acquiring %s while holding %s closes \
                      the cycle %s"
                     b.name a.name
                     (String.concat " -> " names))
                ~stack ~other
          | None -> ());
          (* Declared-hierarchy check: inner (higher rank) must not be
             held when an outer (lower rank) class is acquired. *)
          (match (a.rank, b.rank) with
          | Some ra, Some rb when ra >= rb && a.id <> b.id ->
              add_violation ~kind:Rank_violation ~classes:[ a.name; b.name ]
                ~message:
                  (Printf.sprintf
                     "declared order broken: acquired %s (%s) while holding \
                      %s (%s); declared ranks require %s first"
                     b.name (rank_str b) a.name (rank_str a) b.name)
                ~stack ~other:None
          | _ -> ());
          Hashtbl.add edges key { ec_count = 1; ec_stack = stack };
          let tbl =
            match Hashtbl.find_opt succs a.id with
            | Some tbl -> tbl
            | None ->
                let tbl = Hashtbl.create 4 in
                Hashtbl.add succs a.id tbl;
                tbl
          in
          Hashtbl.replace tbl b.id ())

let note_nesting_violation ~kind ~cls ~message =
  Mutex.lock graph_mu;
  add_violation ~kind ~classes:[ cls.name ] ~message ~stack:(capture ())
    ~other:None;
  Mutex.unlock graph_mu

(* ---------- The instrumented lock ---------- *)

module Lock = struct
  type t = {
    mu : Mutex.t;
    cls : cls;
    uid : int;
    lk_contended : int Atomic.t;
  }

  let next_uid = Atomic.make 0

  let create ~class_ =
    {
      mu = Mutex.create ();
      cls = class_of class_;
      uid = Atomic.fetch_and_add next_uid 1;
      lk_contended = Atomic.make 0;
    }

  let class_name t = t.cls.name
  let contended t = Atomic.get t.lk_contended

  (* Acquire with contention counting. [try_lock] on an uncontended
     mutex costs the same CAS as [lock], so this is free on the fast
     path and only pays (one atomic increment, one sink call) when
     the acquisition actually blocks. *)
  let acquire_counted t d =
    if Mutex.try_lock t.mu then ()
    else begin
      Atomic.incr t.lk_contended;
      Atomic.incr t.cls.contended_total;
      (match !sink with
      | Some s when not d.busy ->
          guarded d (fun () -> s.s_contended ~class_name:t.cls.name)
      | _ -> ());
      Mutex.lock t.mu
    end

  (* Pre-acquisition bookkeeping: edges, re-entrancy, nesting. *)
  let note_acquire t d =
    guarded d (fun () ->
        List.iter
          (fun fr ->
            if fr.f_uid = t.uid then
              note_nesting_violation ~kind:Reentrant_acquire ~cls:t.cls
                ~message:
                  (Printf.sprintf
                     "re-entrant acquisition: this %s lock is already held \
                      by the current domain"
                     t.cls.name)
            else if fr.f_cls.id = t.cls.id then
              note_nesting_violation ~kind:Same_class_nesting ~cls:t.cls
                ~message:
                  (Printf.sprintf
                     "two %s locks nested on one domain; same-class order \
                      is unordered and can deadlock against a peer"
                     t.cls.name))
          d.frames;
        match d.frames with
        | top :: _ when top.f_uid <> t.uid -> note_edge top.f_cls t.cls
        | _ -> ())

  let lock t =
    let d = Domain.DLS.get dls in
    if enabled () && not d.busy then begin
      note_acquire t d;
      acquire_counted t d;
      d.frames <- { f_uid = t.uid; f_cls = t.cls; f_t0 = !clock () } :: d.frames
    end
    else acquire_counted t d

  (* Remove the (innermost) frame for [t], returning its hold time. *)
  let pop_frame t d =
    let rec go acc = function
      | [] -> None
      | fr :: rest when fr.f_uid = t.uid ->
          d.frames <- List.rev_append acc rest;
          Some (!clock () - fr.f_t0)
      | fr :: rest -> go (fr :: acc) rest
    in
    go [] d.frames

  let note_hold t d ns =
    let ns = max 0 ns in
    if ns > Atomic.get long_hold_ns then begin
      Atomic.incr t.cls.long_holds;
      match !sink with
      | Some s -> guarded d (fun () -> s.s_long ~class_name:t.cls.name ~ns)
      | None -> ()
    end;
    match !sink with
    | Some s -> guarded d (fun () -> s.s_hold ~class_name:t.cls.name ~ns)
    | None -> ()

  let unlock t =
    let d = Domain.DLS.get dls in
    if d.busy then Mutex.unlock t.mu
    else begin
      let hold = pop_frame t d in
      Mutex.unlock t.mu;
      match hold with Some ns -> note_hold t d ns | None -> ()
    end

  (* Not [Fun.protect]: its closure and handler setup are a measurable
     share of an uncontended acquire, and [with_lock] sits on every
     store write. *)
  let with_lock t f =
    lock t;
    match f () with
    | v ->
        unlock t;
        v
    | exception e ->
        let bt = Printexc.get_raw_backtrace () in
        unlock t;
        Printexc.raise_with_backtrace e bt

  let wait cond t =
    let d = Domain.DLS.get dls in
    if d.busy then Condition.wait cond t.mu
    else begin
      let hold = pop_frame t d in
      (match hold with Some ns -> note_hold t d ns | None -> ());
      Condition.wait cond t.mu;
      if hold <> None then
        d.frames <-
          { f_uid = t.uid; f_cls = t.cls; f_t0 = !clock () } :: d.frames
    end
end

(* ---------- Blocking-operation classification ---------- *)

let blocking ~kind f =
  let d = Domain.DLS.get dls in
  if enabled () && not d.busy then begin
    let offending =
      List.filter (fun fr -> not fr.f_cls.io_ok) d.frames
      |> List.map (fun fr -> fr.f_cls.name)
      |> List.sort_uniq String.compare
    in
    if offending <> [] then begin
      let stack = capture () in
      Mutex.lock graph_mu;
      add_violation ~kind:Io_under_lock ~classes:(kind :: offending)
        ~message:
          (Printf.sprintf
             "blocking %s while holding %s; none of these classes is \
              declared io_ok"
             kind
             (String.concat ", " offending))
        ~stack ~other:None;
      Mutex.unlock graph_mu
    end
  end;
  f ()

(* ---------- Reporting ---------- *)

type edge = {
  e_from : string;
  e_to : string;
  e_count : int;
  e_stack : string;
}

type class_info = {
  c_class : string;
  c_rank : int option;
  c_io_ok : bool;
  c_contended : int;
  c_long_holds : int;
}

type report = {
  r_enabled : bool;
  r_classes : class_info list;
  r_edges : edge list;
  r_violations : violation list;
}

let violations () =
  Mutex.lock graph_mu;
  let out = List.rev !violations_rev in
  Mutex.unlock graph_mu;
  out

let report () =
  let observed =
    Mutex.lock graph_mu;
    let es =
      Hashtbl.fold
        (fun (a, b) e acc ->
          {
            e_from = (Hashtbl.find by_id a).name;
            e_to = (Hashtbl.find by_id b).name;
            e_count = e.ec_count;
            e_stack = e.ec_stack;
          }
          :: acc)
        edges []
    in
    let vs = List.rev !violations_rev in
    Mutex.unlock graph_mu;
    (es, vs)
  in
  let es, vs = observed in
  let es =
    List.sort
      (fun a b ->
        match String.compare a.e_from b.e_from with
        | 0 -> String.compare a.e_to b.e_to
        | n -> n)
      es
  in
  Mutex.lock classes_mu;
  let cs =
    Hashtbl.fold
      (fun name c acc ->
        {
          c_class = name;
          c_rank = c.rank;
          c_io_ok = c.io_ok;
          c_contended = Atomic.get c.contended_total;
          c_long_holds = Atomic.get c.long_holds;
        }
        :: acc)
      classes []
  in
  Mutex.unlock classes_mu;
  let cs =
    List.sort
      (fun a b ->
        match (a.c_rank, b.c_rank) with
        | Some ra, Some rb when ra <> rb -> compare ra rb
        | Some _, None -> -1
        | None, Some _ -> 1
        | _ -> String.compare a.c_class b.c_class)
      cs
  in
  { r_enabled = enabled (); r_classes = cs; r_edges = es; r_violations = vs }

let reset () =
  Mutex.lock graph_mu;
  Hashtbl.reset edges;
  Hashtbl.reset succs;
  Hashtbl.reset vio_seen;
  violations_rev := [];
  Mutex.unlock graph_mu;
  Mutex.lock classes_mu;
  Hashtbl.iter
    (fun _ c ->
      Atomic.set c.contended_total 0;
      Atomic.set c.long_holds 0)
    classes;
  Mutex.unlock classes_mu

let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 32 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let report_json () =
  let r = report () in
  let b = Buffer.create 4096 in
  Buffer.add_string b "{\n";
  Buffer.add_string b
    (Printf.sprintf "  \"enabled\": %b,\n  \"classes\": [\n" r.r_enabled);
  List.iteri
    (fun i c ->
      if i > 0 then Buffer.add_string b ",\n";
      Buffer.add_string b
        (Printf.sprintf
           "    {\"class\": \"%s\", \"rank\": %s, \"io_ok\": %b, \
            \"contended\": %d, \"long_holds\": %d}"
           (json_escape c.c_class)
           (match c.c_rank with Some r -> string_of_int r | None -> "null")
           c.c_io_ok c.c_contended c.c_long_holds))
    r.r_classes;
  Buffer.add_string b "\n  ],\n  \"edges\": [\n";
  List.iteri
    (fun i e ->
      if i > 0 then Buffer.add_string b ",\n";
      Buffer.add_string b
        (Printf.sprintf
           "    {\"from\": \"%s\", \"to\": \"%s\", \"count\": %d, \"stack\": \
            \"%s\"}"
           (json_escape e.e_from) (json_escape e.e_to) e.e_count
           (json_escape e.e_stack)))
    r.r_edges;
  Buffer.add_string b "\n  ],\n  \"violations\": [\n";
  List.iteri
    (fun i v ->
      if i > 0 then Buffer.add_string b ",\n";
      Buffer.add_string b
        (Printf.sprintf
           "    {\"kind\": \"%s\", \"classes\": [%s], \"message\": \"%s\", \
            \"stack\": \"%s\", \"other_stack\": %s}"
           (kind_name v.v_kind)
           (String.concat ", "
              (List.map (fun c -> "\"" ^ json_escape c ^ "\"") v.v_classes))
           (json_escape v.v_message)
           (json_escape v.v_stack)
           (match v.v_other_stack with
           | Some s -> "\"" ^ json_escape s ^ "\""
           | None -> "null")))
    r.r_violations;
  Buffer.add_string b "\n  ]\n}\n";
  Buffer.contents b

let pp_report ppf r =
  let open Format in
  fprintf ppf "lock checking %s@."
    (if r.r_enabled then "enabled" else "disabled");
  fprintf ppf "@.declared hierarchy:@.";
  List.iter
    (fun c ->
      match c.c_rank with
      | Some rank ->
          fprintf ppf "  %4d  %-20s%s@." rank c.c_class
            (if c.c_io_ok then "  [io ok]" else "")
      | None -> ())
    r.r_classes;
  let unranked =
    List.filter (fun c -> c.c_rank = None) r.r_classes
    |> List.map (fun c -> c.c_class)
  in
  if unranked <> [] then
    fprintf ppf "  unranked: %s@." (String.concat ", " unranked);
  fprintf ppf "@.observed acquisition edges (%d):@." (List.length r.r_edges);
  List.iter
    (fun e -> fprintf ppf "  %s -> %s (x%d)@." e.e_from e.e_to e.e_count)
    r.r_edges;
  let contended =
    List.filter (fun c -> c.c_contended > 0 || c.c_long_holds > 0) r.r_classes
  in
  if contended <> [] then begin
    fprintf ppf "@.contention:@.";
    List.iter
      (fun c ->
        fprintf ppf "  %-24s contended %d, long holds %d@." c.c_class
          c.c_contended c.c_long_holds)
      contended
  end;
  fprintf ppf "@.violations: %d@." (List.length r.r_violations);
  List.iter
    (fun v ->
      fprintf ppf "@.%s  [%s]@.  %s@." (kind_name v.v_kind)
        (String.concat ", " v.v_classes)
        v.v_message;
      if v.v_stack <> "" then
        fprintf ppf "  acquisition stack:@.%s"
          (String.concat ""
             (List.map
                (fun l -> "    " ^ l ^ "\n")
                (String.split_on_char '\n' (String.trim v.v_stack))));
      match v.v_other_stack with
      | Some s when s <> "" ->
          fprintf ppf "  opposing-order stack:@.%s"
            (String.concat ""
               (List.map
                  (fun l -> "    " ^ l ^ "\n")
                  (String.split_on_char '\n' (String.trim s))))
      | _ -> ())
    r.r_violations
