(* Tests for TRIM: triples, every store implementation, views,
   persistence. *)

open Si_triple

let check = Alcotest.(check string)
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let triple_testable = Alcotest.testable Triple.pp Triple.equal

let t1 = Triple.make "b1" "bundleName" (Triple.literal "John Smith")
let t2 = Triple.make "b1" "bundleContent" (Triple.resource "s1")
let t3 = Triple.make "s1" "scrapName" (Triple.literal "Dopamine")
let t4 = Triple.make "s1" "scrapMark" (Triple.resource "m1")
let t5 = Triple.make "m1" "markId" (Triple.literal "excel-001")

let sample = [ t1; t2; t3; t4; t5 ]

(* ------------------------------------------------------------- triples *)

let test_triple_basics () =
  check "to_string" "(<b1> bundleName \"John Smith\")" (Triple.to_string t1);
  check "resource obj" "<s1>" (Triple.obj_to_string (Triple.resource "s1"));
  check_bool "equal" true (Triple.equal t1 (Triple.make "b1" "bundleName" (Triple.literal "John Smith")));
  check_bool "literal <> resource" false
    (Triple.obj_equal (Triple.literal "x") (Triple.resource "x"));
  check_bool "compare orders" true (Triple.compare t1 t2 <> 0);
  check_int "compare self" 0 (Triple.compare t1 t1)

(* ------------------------------------- store behaviour, per implementation *)

let store_tests (module S : Store.S) =
  let prefix = S.name in
  let make () =
    let s = S.create () in
    List.iter (fun x -> ignore (S.add s x)) sample;
    s
  in
  let test_set_semantics () =
    let s = make () in
    check_int "size" 5 (S.size s);
    check_bool "re-add" false (S.add s t1);
    check_int "still 5" 5 (S.size s);
    check_bool "mem" true (S.mem s t3);
    check_bool "remove" true (S.remove s t3);
    check_bool "gone" false (S.mem s t3);
    check_bool "remove again" false (S.remove s t3);
    check_int "4 left" 4 (S.size s);
    S.clear s;
    check_int "cleared" 0 (S.size s)
  in
  let test_select () =
    let s = make () in
    let sort = List.sort Triple.compare in
    Alcotest.(check (list triple_testable))
      "by subject" (sort [ t1; t2 ])
      (sort (S.select ~subject:"b1" s));
    Alcotest.(check (list triple_testable))
      "by predicate" [ t3 ]
      (S.select ~predicate:"scrapName" s);
    Alcotest.(check (list triple_testable))
      "by object" [ t4 ]
      (S.select ~object_:(Triple.resource "m1") s);
    Alcotest.(check (list triple_testable))
      "subject+predicate" [ t2 ]
      (S.select ~subject:"b1" ~predicate:"bundleContent" s);
    Alcotest.(check (list triple_testable))
      "all three" [ t5 ]
      (S.select ~subject:"m1" ~predicate:"markId"
         ~object_:(Triple.literal "excel-001") s);
    check_int "no filter = all" 5 (List.length (S.select s));
    check_bool "no match" true (S.select ~subject:"zz" s = []);
    check_bool "mismatched combo" true
      (S.select ~subject:"b1" ~predicate:"markId" s = [])
  in
  let test_select_after_remove () =
    let s = make () in
    ignore (S.remove s t2);
    check_bool "removed not selected (subject)" true
      (not (List.exists (Triple.equal t2) (S.select ~subject:"b1" s)));
    check_bool "removed not selected (predicate)" true
      (S.select ~predicate:"bundleContent" s = []);
    check_bool "removed not selected (object)" true
      (S.select ~object_:(Triple.resource "s1") s = [])
  in
  let test_readd_no_duplicates () =
    (* Regression: remove + re-add must not make select return the triple
       twice (stale index entries). *)
    let s = make () in
    ignore (S.remove s t1);
    ignore (S.add s t1);
    check_int "subject select once" 1
      (List.length (S.select ~subject:"b1" ~predicate:"bundleName" s));
    check_int "predicate select once" 1
      (List.length (S.select ~predicate:"bundleName" s));
    check_int "object select once" 1
      (List.length (S.select ~object_:(Triple.literal "John Smith") s))
  in
  let test_pair_index_stale () =
    (* Regression for the compound indexes: remove then re-add must leave
       the subject+predicate and predicate+object buckets with exactly one
       live copy; remove without re-add must leave them empty. *)
    let s = make () in
    ignore (S.remove s t2);
    ignore (S.add s t2);
    check_int "sp once after re-add" 1
      (List.length (S.select ~subject:"b1" ~predicate:"bundleContent" s));
    check_int "po once after re-add" 1
      (List.length
         (S.select ~predicate:"bundleContent" ~object_:(Triple.resource "s1") s));
    check_int "count sp once" 1
      (S.count ~subject:"b1" ~predicate:"bundleContent" s);
    check_int "count po once" 1
      (S.count ~predicate:"bundleContent" ~object_:(Triple.resource "s1") s);
    ignore (S.remove s t4);
    check_bool "sp empty after remove" true
      (S.select ~subject:"s1" ~predicate:"scrapMark" s = []);
    check_bool "po empty after remove" true
      (S.select ~predicate:"scrapMark" ~object_:(Triple.resource "m1") s = []);
    check_int "count sp zero after remove" 0
      (S.count ~subject:"s1" ~predicate:"scrapMark" s);
    check_int "count po zero after remove" 0
      (S.count ~predicate:"scrapMark" ~object_:(Triple.resource "m1") s)
  in
  let test_count_exists () =
    let s = make () in
    check_int "count all" 5 (S.count s);
    check_int "count subject" 2 (S.count ~subject:"b1" s);
    check_int "count sp" 1 (S.count ~subject:"b1" ~predicate:"bundleName" s);
    check_int "count po" 1
      (S.count ~predicate:"bundleContent" ~object_:(Triple.resource "s1") s);
    check_int "count spo" 1
      (S.count ~subject:"m1" ~predicate:"markId"
         ~object_:(Triple.literal "excel-001") s);
    check_int "count miss" 0 (S.count ~subject:"zz" s);
    check_int "count mismatched combo" 0
      (S.count ~subject:"b1" ~predicate:"markId" s);
    let exists ?subject ?predicate ?object_ s =
      S.count ?subject ?predicate ?object_ s > 0
    in
    check_bool "exists subject" true (exists ~subject:"s1" s);
    check_bool "exists sp" true (exists ~subject:"s1" ~predicate:"scrapName" s);
    check_bool "exists so" true
      (exists ~subject:"s1" ~object_:(Triple.resource "m1") s);
    check_bool "exists po" true
      (exists ~predicate:"scrapMark" ~object_:(Triple.resource "m1") s);
    check_bool "exists all" true (exists s);
    check_bool "exists miss" false (exists ~subject:"zz" s);
    ignore (S.remove s t3);
    check_int "count tracks removal" 0
      (S.count ~subject:"s1" ~predicate:"scrapName" s);
    check_bool "exists tracks removal" false
      (exists ~subject:"s1" ~predicate:"scrapName" s);
    S.clear s;
    check_bool "exists on empty" false (exists s);
    check_int "count on empty" 0 (S.count s)
  in
  [
    (prefix ^ ": set semantics", `Quick, test_set_semantics);
    (prefix ^ ": selection query", `Quick, test_select);
    (prefix ^ ": selection after removal", `Quick, test_select_after_remove);
    (prefix ^ ": re-add has no duplicates", `Quick, test_readd_no_duplicates);
    (prefix ^ ": pair indexes survive remove/re-add", `Quick,
     test_pair_index_stale);
    (prefix ^ ": count & exists", `Quick, test_count_exists);
  ]

(* ------------------------------------------------- parallel (domains) *)

let test_sharded_parallel_mixed_ops () =
  (* 5 domains, mixed add/remove/select: two adders, a remover chasing the
     first adder, a cross-shard reader, and a subject-bound reader. *)
  let module S = Store.Sharded_columnar in
  let s = S.create () in
  let triples d =
    List.init 200 (fun i ->
        Triple.make (Printf.sprintf "d%d-r%d" d i) "p" (Triple.literal "v"))
  in
  let adder d () = List.iter (fun t -> ignore (S.add s t)) (triples d) in
  let remover () = List.iter (fun t -> ignore (S.remove s t)) (triples 0) in
  let reader () =
    for _ = 1 to 200 do
      ignore (S.select ~predicate:"p" s);
      ignore (S.size s)
    done
  in
  let point_reader () =
    for i = 1 to 200 do
      let subject = Printf.sprintf "d1-r%d" (i mod 200) in
      ignore (S.select ~subject ~predicate:"p" s);
      ignore (S.count ~subject s)
    done
  in
  let domains =
    [
      Domain.spawn (adder 0); Domain.spawn (adder 1); Domain.spawn remover;
      Domain.spawn reader; Domain.spawn point_reader;
    ]
  in
  List.iter Domain.join domains;
  (* Adder 1's triples are definitely all present; adder 0's may or may
     not have been removed, but the store must be consistent. *)
  let remaining = S.select ~predicate:"p" s in
  check_bool "adder-1 intact" true
    (List.for_all
       (fun t -> List.exists (Triple.equal t) remaining)
       (triples 1));
  check_int "size agrees with select" (S.size s) (List.length remaining);
  check_int "count agrees with select" (S.count ~predicate:"p" s)
    (List.length remaining)

let test_sharded_stale_pair_after_domains () =
  (* Remove + re-add races across domains must not leave duplicate pair
     bucket entries: every surviving subject+predicate bucket holds the
     triple exactly once. *)
  let module S = Store.Sharded_columnar in
  let s = S.create () in
  let triples =
    List.init 100 (fun i ->
        Triple.make (Printf.sprintf "r%d" i) "p" (Triple.literal "v"))
  in
  List.iter (fun t -> ignore (S.add s t)) triples;
  let churn () =
    List.iter
      (fun t ->
        ignore (S.remove s t);
        ignore (S.add s t))
      triples
  in
  let domains = List.init 4 (fun _ -> Domain.spawn churn) in
  List.iter Domain.join domains;
  List.iter
    (fun (t : Triple.t) ->
      check_int
        (Printf.sprintf "sp bucket of %s has one entry" t.subject)
        1
        (List.length (S.select ~subject:t.subject ~predicate:"p" s)))
    triples;
  check_int "po bucket consistent" (S.size s)
    (List.length (S.select ~predicate:"p" ~object_:(Triple.literal "v") s))

(* ----------------------------------------------------- atom interning *)

(* The table is process-global, so these tests use strings no other test
   interns and never assume a starting size. *)

let test_atom_roundtrip () =
  let s = "atom-test-roundtrip-α" in
  check_bool "not yet interned" true (Atom.find s = None);
  let id = Atom.intern s in
  check_int "intern is idempotent" id (Atom.intern s);
  check_bool "find agrees" true (Atom.find s = Some id);
  check "to_string inverts" s (Atom.to_string id);
  check_bool "canonical instance is physically stable" true
    (Atom.to_string id == Atom.to_string id)

let test_atom_find_never_interns () =
  let before = Atom.size () in
  for i = 0 to 99 do
    ignore (Atom.find (Printf.sprintf "atom-test-never-stored-%d" i))
  done;
  check_int "find did not grow the table" before (Atom.size ());
  check_bool "unknown id raises" true
    (match Atom.to_string max_int with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_atom_canon () =
  let interned = "atom-test-canon-hit" in
  let id = Atom.intern interned in
  (* A fresh copy with the same contents canonicalizes to the stored
     instance — physical equality, the String.equal fast path. *)
  let copy = String.sub (interned ^ "!") 0 (String.length interned) in
  check_bool "copy is a distinct instance" false (copy == interned);
  check_bool "canon returns the stored instance" true
    (Atom.canon copy == Atom.to_string id);
  let stranger = "atom-test-canon-miss" in
  check_bool "canon of an unknown string is the argument" true
    (Atom.canon stranger == stranger)

let test_atom_growth_dense_ids () =
  (* Force several doublings; ids must stay dense and stable. *)
  let ids =
    List.init 3000 (fun i -> Atom.intern (Printf.sprintf "atom-test-grow-%d" i))
  in
  List.iteri
    (fun i id ->
      if Atom.intern (Printf.sprintf "atom-test-grow-%d" i) <> id then
        Alcotest.failf "id %d moved after growth" i)
    ids;
  let sorted = List.sort_uniq compare ids in
  check_int "ids are distinct" 3000 (List.length sorted)

let test_atom_parallel_intern () =
  (* Four domains intern overlapping ranges; every string must end up
     with exactly one id, and readers racing the appends must never see
     an inconsistent snapshot. *)
  let name i = Printf.sprintf "atom-test-par-%d" i in
  let worker d () =
    let ids = Array.make 512 (-1) in
    for i = 0 to 511 do
      ids.(i) <- Atom.intern (name ((i + (d * 128)) mod 512));
      ignore (Atom.find (name (511 - i)))
    done;
    ids
  in
  let domains = List.init 4 (fun d -> Domain.spawn (worker d)) in
  let _ = List.map Domain.join domains in
  for i = 0 to 511 do
    let id = Atom.intern (name i) in
    check "parallel intern converged" (name i) (Atom.to_string id)
  done

let intern_counter = Si_obs.Registry.counter "atom.intern"

let test_atom_intern_all_is_map_intern () =
  (* Fresh strings repeated within the array, strings interned before
     the call, and the empty string; sized past a table doubling. *)
  let fresh i = Printf.sprintf "atom-test-bulk-%d" i in
  let old i = Printf.sprintf "atom-test-bulk-old-%d" i in
  let old_ids = Array.init 50 (fun i -> Atom.intern (old i)) in
  let strs =
    Array.init 4000 (fun i ->
        match i mod 5 with
        | 0 -> old (i mod 50)
        | 1 -> ""
        | _ -> fresh (i mod 1500)  (* most fresh names recur *))
  in
  let distinct = List.sort_uniq String.compare (Array.to_list strs) in
  let unseen = List.filter (fun s -> Atom.find s = None) distinct in
  let before = Si_obs.Counter.get intern_counter in
  let size_before = Atom.size () in
  let ids = Atom.intern_all strs in
  check_int "counter counts first-time internings" (List.length unseen)
    (Si_obs.Counter.get intern_counter - before);
  check_int "table grew by the unseen strings" (List.length unseen)
    (Atom.size () - size_before);
  let after = Si_obs.Counter.get intern_counter in
  let mapped = Array.map Atom.intern strs in
  check_bool "same ids as Array.map intern" true (ids = mapped);
  check_int "intern afterwards interns nothing" after
    (Si_obs.Counter.get intern_counter);
  Array.iteri
    (fun i id ->
      check "to_string inverts" strs.(i) (Atom.to_string id);
      if i mod 5 = 0 then
        check_int "interned earlier keeps its id" old_ids.(i mod 50) id)
    ids;
  check_bool "empty array" true (Atom.intern_all [||] = [||])

let test_atom_intern_all_parallel () =
  (* Two domains bulk-intern overlapping arrays, in opposite orders;
     the ids agree on every shared string and with a later intern. *)
  let name i = Printf.sprintf "atom-test-bulk-par-%d" i in
  let a = Array.init 3000 (fun i -> name i) in
  let b = Array.init 3000 (fun i -> name (4499 - i)) in
  let before = Si_obs.Counter.get intern_counter in
  let da = Domain.spawn (fun () -> Atom.intern_all a) in
  let db = Domain.spawn (fun () -> Atom.intern_all b) in
  let ia = Domain.join da and ib = Domain.join db in
  check_int "each string interned once" 4500
    (Si_obs.Counter.get intern_counter - before);
  for i = 1500 to 2999 do
    check_int "domains agree" ia.(i) ib.(4499 - i)
  done;
  Array.iteri (fun i id -> check_int "a agrees" (Atom.intern a.(i)) id) ia;
  Array.iteri (fun i id -> check_int "b agrees" (Atom.intern b.(i)) id) ib

(* ------------------------------------------- columnar store internals *)

let compactions = Si_obs.Registry.counter "store.columnar.compact"

let test_columnar_compaction () =
  (* Churn enough rows through the store to force tombstone compaction;
     contents and every index must survive it. *)
  let module S = Store.Columnar_store in
  let s = S.create () in
  let before = Si_obs.Counter.get compactions in
  let tr i = Triple.make (Printf.sprintf "c%d" i) "p" (Triple.literal "v") in
  for round = 0 to 4 do
    for i = 0 to 999 do
      ignore (S.add s (tr ((round * 1000) + i)))
    done;
    for i = 0 to 999 do
      if i mod 2 = 0 then ignore (S.remove s (tr ((round * 1000) + i)))
    done
  done;
  check_bool "the churn compacted the store" true
    (Si_obs.Counter.get compactions > before);
  check_int "size survives churn" 2500 (S.size s);
  check_int "predicate count" 2500 (S.count ~predicate:"p" s);
  check_int "object select" 2500
    (List.length (S.select ~object_:(Triple.literal "v") s));
  check_bool "survivor present" true (S.mem s (tr 1));
  check_bool "victim gone" false (S.mem s (tr 0));
  check_int "sp bucket exact" 1 (S.count ~subject:"c1" ~predicate:"p" s);
  check_int "removed sp bucket empty" 0 (S.count ~subject:"c0" ~predicate:"p" s)

(* Removals from a base built by [of_packed_columns], too few to compact
   it, leave tombstones on base rows; re-adding some of them puts them in
   the delta. Every bound select (rows in order) and count must match the
   list oracle given the same writes. *)
let test_columnar_base_tombstones () =
  let module C = Store.Columnar_store in
  let module L = Store.List_store in
  let rows =
    Array.init 240 (fun i ->
        Triple.make
          (Printf.sprintf "bt-s%d" (i mod 40))
          (Printf.sprintf "bt-p%d" (i mod 3))
          (if i mod 2 = 0 then Triple.resource (Printf.sprintf "bt-o%d" (i mod 9))
           else Triple.literal (Printf.sprintf "bt-v%d" i)))
  in
  let column f = Array.map f rows in
  let subs = column (fun (t : Triple.t) -> Atom.intern t.subject) in
  let preds = column (fun (t : Triple.t) -> Atom.intern t.predicate) in
  let objs =
    column (fun (t : Triple.t) ->
        match t.object_ with
        | Triple.Resource r -> 2 * Atom.intern r
        | Triple.Literal l -> (2 * Atom.intern l) + 1)
  in
  let c =
    C.of_packed_columns (Array.copy subs) (Array.copy preds) (Array.copy objs)
  in
  let l = L.of_packed_columns subs preds objs in
  let before = Si_obs.Counter.get compactions in
  let write i t =
    if i mod 7 = 0 then begin
      check_bool "removed" true (C.remove c t);
      ignore (L.remove l t)
    end
  in
  Array.iteri write rows;
  Array.iteri
    (fun i t ->
      if i mod 14 = 0 then begin
        check_bool "re-added" true (C.add c t);
        ignore (L.add l t)
      end)
    rows;
  check_int "no compaction" before (Si_obs.Counter.get compactions);
  let rows_equal = List.equal Triple.equal in
  Array.iter
    (fun (t : Triple.t) ->
      let s = t.subject and p = t.predicate and o = t.object_ in
      let agree what f g =
        check_bool what true (rows_equal (f c) (g l))
      in
      agree "s" (C.select ~subject:s) (L.select ~subject:s);
      agree "p" (C.select ~predicate:p) (L.select ~predicate:p);
      agree "o" (C.select ~object_:o) (L.select ~object_:o);
      agree "sp" (C.select ~subject:s ~predicate:p)
        (L.select ~subject:s ~predicate:p);
      agree "so" (C.select ~subject:s ~object_:o)
        (L.select ~subject:s ~object_:o);
      agree "po" (C.select ~predicate:p ~object_:o)
        (L.select ~predicate:p ~object_:o);
      check_int "count s" (L.count ~subject:s l) (C.count ~subject:s c);
      check_int "count p" (L.count ~predicate:p l) (C.count ~predicate:p c);
      check_int "count o" (L.count ~object_:o l) (C.count ~object_:o c);
      check_int "count po"
        (L.count ~predicate:p ~object_:o l)
        (C.count ~predicate:p ~object_:o c);
      check_bool "mem" (L.mem l t) (C.mem c t))
    rows;
  check_int "size" (L.size l) (C.size c)

(* One writer domain and two lock-free reader domains on a store that
   starts from a loaded base. The writer adds absent and removes present
   triples of a small universe and clears once; its removals compact
   the store many times. A reader records an answer only when the store
   version was the same before and after it, so the answer must be the
   one the store gave at that version. After the join, the writer's log
   is replayed into the list oracle and every recorded select (rows in
   order, newest first), count, size and membership is checked against
   it at its version. *)
type answer = Rows of Triple.t list | Num of int | Flag of bool

let test_readers_against_oracle () =
  let module C = Store.Columnar_store in
  let module L = Store.List_store in
  let universe =
    Array.of_list
      (List.concat_map
         (fun s ->
           List.concat_map
             (fun p ->
               List.map
                 (fun o -> Triple.make (Printf.sprintf "cr-s%d" s) p o)
                 [
                   Triple.resource (Printf.sprintf "cr-o%d" (s mod 7));
                   Triple.resource "cr-shared";
                   Triple.literal (Printf.sprintf "cr-v%d" (s mod 5));
                   Triple.literal "cr-shared";
                 ])
             [ "cr-p0"; "cr-p1"; "cr-p2" ])
         (List.init 30 Fun.id))
  in
  let loaded = Array.sub universe 0 150 in
  let column f = Array.map f loaded in
  let subs = column (fun (t : Triple.t) -> Atom.intern t.subject) in
  let preds = column (fun (t : Triple.t) -> Atom.intern t.predicate) in
  let objs =
    column (fun (t : Triple.t) ->
        match t.object_ with
        | Triple.Resource r -> 2 * Atom.intern r
        | Triple.Literal l -> (2 * Atom.intern l) + 1)
  in
  let store =
    C.of_packed_columns (Array.copy subs) (Array.copy preds) (Array.copy objs)
  in
  let oracle = L.of_packed_columns subs preds objs in
  let compacted_before = Si_obs.Counter.get compactions in
  let ops = 6000 in
  let log = Array.make (ops + 1) `Clear in
  let ready = Atomic.make 0 and finished = Atomic.make false in
  let reads = Atomic.make 0 in
  let writer () =
    let st = Random.State.make [| 22 |] in
    let present = Hashtbl.create 512 in
    Array.iter (fun t -> Hashtbl.replace present t ()) loaded;
    while Atomic.get ready < 2 do
      Domain.cpu_relax ()
    done;
    for v = 1 to ops do
      let op =
        if v = ops / 2 then begin
          C.clear store;
          Hashtbl.reset present;
          `Clear
        end
        else
          let t = universe.(Random.State.int st (Array.length universe)) in
          if Hashtbl.mem present t then begin
            ignore (C.remove store t);
            Hashtbl.remove present t;
            `Remove t
          end
          else begin
            ignore (C.add store t);
            Hashtbl.replace present t ();
            `Add t
          end
      in
      log.(v) <- op;
      if C.version store <> v then
        Alcotest.failf "version %d after write %d" (C.version store) v;
      (* Wait for two more reads (or give up after a while), so that
         writes land at random points of the readers' loops and most
         reads fit between two writes. *)
      let target = Atomic.get reads + 2 and spins = ref 0 in
      while Atomic.get reads < target && !spins < 100_000 do
        incr spins;
        Domain.cpu_relax ()
      done
    done;
    Atomic.set finished true
  in
  let probes (t : Triple.t) =
    let s = t.subject and p = t.predicate and o = t.object_ in
    [|
      (fun st -> Rows (C.select ~subject:s st));
      (fun st -> Rows (C.select ~predicate:p st));
      (fun st -> Rows (C.select ~object_:o st));
      (fun st -> Rows (C.select ~subject:s ~predicate:p st));
      (fun st -> Rows (C.select ~subject:s ~object_:o st));
      (fun st -> Rows (C.select ~predicate:p ~object_:o st));
      (fun st -> Rows (C.select ~subject:s ~predicate:p ~object_:o st));
      (fun st -> Num (C.count ~subject:s st));
      (fun st -> Num (C.count ~predicate:p st));
      (fun st -> Num (C.count ~object_:o st));
      (fun st -> Num (C.count ~subject:s ~predicate:p st));
      (fun st -> Num (C.count ~subject:s ~object_:o st));
      (fun st -> Num (C.count ~predicate:p ~object_:o st));
      (fun st -> Num (C.size st));
      (fun st -> Flag (C.mem st t));
    |]
  in
  let kinds = Array.length (probes universe.(0)) in
  let reader seed () =
    let st = Random.State.make [| seed |] in
    let seen = ref [] in
    Atomic.incr ready;
    while not (Atomic.get finished) do
      let i = Random.State.int st (Array.length universe) in
      let k = Random.State.int st kinds in
      let before = C.version store in
      let got = (probes universe.(i)).(k) store in
      if C.version store = before then seen := (before, i, k, got) :: !seen;
      Atomic.incr reads
    done;
    !seen
  in
  let readers = [ Domain.spawn (reader 1); Domain.spawn (reader 2) ] in
  let w = Domain.spawn writer in
  Domain.join w;
  let seen = List.concat_map Domain.join readers in
  check_bool "the store compacted while read" true
    (Si_obs.Counter.get compactions > compacted_before);
  check_bool "readers recorded answers" true (List.length seen > 100);
  let expected (t : Triple.t) k =
    let s = t.subject and p = t.predicate and o = t.object_ in
    match k with
    | 0 -> Rows (L.select ~subject:s oracle)
    | 1 -> Rows (L.select ~predicate:p oracle)
    | 2 -> Rows (L.select ~object_:o oracle)
    | 3 -> Rows (L.select ~subject:s ~predicate:p oracle)
    | 4 -> Rows (L.select ~subject:s ~object_:o oracle)
    | 5 -> Rows (L.select ~predicate:p ~object_:o oracle)
    | 6 -> Rows (L.select ~subject:s ~predicate:p ~object_:o oracle)
    | 7 -> Num (L.count ~subject:s oracle)
    | 8 -> Num (L.count ~predicate:p oracle)
    | 9 -> Num (L.count ~object_:o oracle)
    | 10 -> Num (L.count ~subject:s ~predicate:p oracle)
    | 11 -> Num (L.count ~subject:s ~object_:o oracle)
    | 12 -> Num (L.count ~predicate:p ~object_:o oracle)
    | 13 -> Num (L.size oracle)
    | _ -> Flag (L.mem oracle t)
  in
  let at = ref 0 in
  let mismatches = ref 0 in
  List.iter
    (fun (v, i, k, got) ->
      while !at < v do
        incr at;
        match log.(!at) with
        | `Add t -> ignore (L.add oracle t)
        | `Remove t -> ignore (L.remove oracle t)
        | `Clear -> L.clear oracle
      done;
      let same =
        match (got, expected universe.(i) k) with
        | Rows a, Rows b -> List.equal Triple.equal a b
        | a, b -> a = b
      in
      if not same then incr mismatches)
    (List.sort (fun (a, _, _, _) (b, _, _, _) -> compare a b) seen);
  check_int "answers unlike the oracle at their version" 0 !mismatches

let test_sharded_columnar_parallel () =
  (* The sharded wrapper over the columnar base: disjoint adds from four
     domains, with interleaved cross-shard reads. *)
  let module S = Store.Sharded_columnar in
  let s = S.create () in
  let per_domain = 500 in
  let worker d () =
    for i = 0 to per_domain - 1 do
      ignore
        (S.add s
           (Triple.make
              (Printf.sprintf "sc%d-r%d" d i)
              "p"
              (Triple.literal (string_of_int i))));
      if i mod 50 = 0 then ignore (S.select ~predicate:"p" s);
      if i mod 25 = 0 then
        ignore (S.count ~subject:(Printf.sprintf "sc%d-r%d" d (i / 2)) s)
    done
  in
  let domains = List.init 4 (fun d -> Domain.spawn (worker d)) in
  List.iter Domain.join domains;
  check_int "all triples present" (4 * per_domain) (S.size s);
  check_int "count agrees" (4 * per_domain) (S.count ~predicate:"p" s)

(* ---------------------------------------------------------------- TRIM *)

let make_trim () =
  let trim = Trim.create () in
  Trim.add_all trim sample;
  trim

let test_trim_accessors () =
  let trim = make_trim () in
  check "literal_of" "John Smith"
    (Option.get (Trim.literal_of trim ~subject:"b1" ~predicate:"bundleName"));
  check "resource_of" "m1"
    (Option.get (Trim.resource_of trim ~subject:"s1" ~predicate:"scrapMark"));
  check_bool "literal_of on resource" true
    (Trim.literal_of trim ~subject:"s1" ~predicate:"scrapMark" = None);
  check_bool "absent" true
    (Trim.object_of trim ~subject:"zz" ~predicate:"zz" = None)

let test_trim_set () =
  let trim = make_trim () in
  Trim.set trim ~subject:"b1" ~predicate:"bundleName"
    (Triple.literal "Jane Doe");
  check "updated" "Jane Doe"
    (Option.get (Trim.literal_of trim ~subject:"b1" ~predicate:"bundleName"));
  check_int "no duplicate" 1
    (List.length (Trim.select ~subject:"b1" ~predicate:"bundleName" trim))

let test_trim_remove_subject () =
  let trim = make_trim () in
  check_int "removed 2" 2 (Trim.remove_subject trim "s1");
  check_int "left" 3 (Trim.size trim);
  check_int "removed 0" 0 (Trim.remove_subject trim "s1")

let test_trim_count_exists () =
  let trim = make_trim () in
  check_int "count_select all" 5 (Trim.count_select trim);
  check_int "count_select subject" 2 (Trim.count_select ~subject:"b1" trim);
  check_int "count_select sp" 1
    (Trim.count_select ~subject:"s1" ~predicate:"scrapName" trim);
  check_int "count_select miss" 0 (Trim.count_select ~subject:"zz" trim);
  check_bool "exists subject" true (Trim.exists ~subject:"b1" trim);
  check_bool "exists sp" true
    (Trim.exists ~subject:"s1" ~predicate:"scrapMark" trim);
  check_bool "exists miss" false (Trim.exists ~subject:"zz" trim);
  ignore (Trim.remove trim t3);
  check_int "count_select tracks removal" 0
    (Trim.count_select ~subject:"s1" ~predicate:"scrapName" trim);
  check_bool "exists tracks removal" false
    (Trim.exists ~subject:"s1" ~predicate:"scrapName" trim)

let test_new_id () =
  let trim = make_trim () in
  let a = Trim.new_id ~prefix:"x" trim in
  let b = Trim.new_id ~prefix:"x" trim in
  check_bool "distinct" true (a <> b);
  (* Ids never collide with existing subjects. *)
  ignore (Trim.add trim (Triple.make "x3" "p" (Triple.literal "v")));
  let c = Trim.new_id ~prefix:"x" trim in
  check_bool "skips occupied" true (c <> "x3" && c <> a && c <> b)

let test_view () =
  let trim = make_trim () in
  (* Unrelated triple must not appear in the view. *)
  ignore (Trim.add trim (Triple.make "other" "p" (Triple.literal "v")));
  let view = Trim.view trim "b1" in
  check_int "reachable triples" 5 (List.length view);
  check_bool "contains nested mark" true (List.exists (Triple.equal t5) view);
  check_bool "excludes unrelated" true
    (not (List.exists (fun (tr : Triple.t) -> tr.subject = "other") view));
  Alcotest.(check (list string))
    "bfs order" [ "b1"; "s1"; "m1" ]
    (Trim.reachable_resources trim "b1")

let test_view_cycle_safe () =
  let trim = Trim.create () in
  Trim.add_all trim
    [
      Triple.make "a" "next" (Triple.resource "b");
      Triple.make "b" "next" (Triple.resource "a");
      Triple.make "b" "name" (Triple.literal "bee");
    ];
  check_int "cycle view" 3 (List.length (Trim.view trim "a"));
  Alcotest.(check (list string)) "cycle resources" [ "a"; "b" ]
    (Trim.reachable_resources trim "a")

let test_view_of_leaf () =
  let trim = make_trim () in
  check_int "leaf has no outgoing" 0 (List.length (Trim.view trim "nowhere"));
  Alcotest.(check (list string)) "root only" [ "nowhere" ]
    (Trim.reachable_resources trim "nowhere")

let test_subjects_predicates () =
  let trim = make_trim () in
  Alcotest.(check (list string)) "subjects" [ "b1"; "m1"; "s1" ]
    (Trim.subjects trim);
  Alcotest.(check (list string))
    "predicates"
    [ "bundleContent"; "bundleName"; "markId"; "scrapMark"; "scrapName" ]
    (Trim.predicates trim)

let test_transaction_commit () =
  let trim = make_trim () in
  let result =
    Trim.transaction trim (fun () ->
        ignore (Trim.add trim (Triple.make "x" "p" (Triple.literal "1")));
        Trim.set trim ~subject:"b1" ~predicate:"bundleName"
          (Triple.literal "renamed");
        Ok 42)
  in
  check_bool "committed" true (result = Ok (Ok 42));
  check_int "size" 6 (Trim.size trim);
  check "set survived" "renamed"
    (Option.get (Trim.literal_of trim ~subject:"b1" ~predicate:"bundleName"))

let test_transaction_rollback_on_error () =
  let trim = make_trim () in
  let before = List.sort Triple.compare (Trim.to_list trim) in
  let result =
    Trim.transaction trim (fun () ->
        ignore (Trim.add trim (Triple.make "x" "p" (Triple.literal "1")));
        ignore (Trim.remove_subject trim "s1");
        Trim.set trim ~subject:"b1" ~predicate:"bundleName"
          (Triple.literal "renamed");
        Error "changed my mind")
  in
  check_bool "body error surfaced" true (result = Ok (Error "changed my mind"));
  check_bool "store restored" true
    (List.sort Triple.compare (Trim.to_list trim) = before)

let test_transaction_rollback_on_exception () =
  let trim = make_trim () in
  let before = List.sort Triple.compare (Trim.to_list trim) in
  let result =
    Trim.transaction trim (fun () ->
        ignore (Trim.add trim (Triple.make "x" "p" (Triple.literal "1")));
        failwith "boom")
  in
  (match result with
  | Error (Failure msg) when msg = "boom" -> ()
  | _ -> Alcotest.fail "expected the exception back");
  check_bool "store restored" true
    (List.sort Triple.compare (Trim.to_list trim) = before);
  check_bool "transaction closed" false (Trim.in_transaction trim)

let test_transaction_no_nesting () =
  let trim = make_trim () in
  let result =
    Trim.transaction trim (fun () ->
        match Trim.transaction trim (fun () -> Ok ()) with
        | _ -> Ok ())
  in
  (match result with
  | Error (Invalid_argument _) -> ()
  | _ -> Alcotest.fail "expected nesting rejection");
  check_bool "outer rolled back and closed" false (Trim.in_transaction trim)

let test_dmi_atomically () =
  let dmi = Si_slim.Dmi.create () in
  let pad = Si_slim.Dmi.create_slimpad dmi ~pad_name:"P" in
  let root = Si_slim.Dmi.root_bundle dmi pad in
  let triples = Si_slim.Dmi.triple_count dmi in
  let journal = Si_slim.Dmi.journal_length dmi in
  (* A failed multi-step operation leaves no trace — triples or journal. *)
  let result =
    Si_slim.Dmi.atomically dmi (fun () ->
        let b = Si_slim.Dmi.create_bundle dmi ~name:"temp" ~parent:root () in
        let _ =
          Si_slim.Dmi.create_scrap dmi ~name:"s" ~mark_id:"m" ~parent:b ()
        in
        Error "abort")
  in
  check_bool "aborted" true (result = Error "abort");
  check_int "triples restored" triples (Si_slim.Dmi.triple_count dmi);
  check_int "journal restored" journal (Si_slim.Dmi.journal_length dmi);
  check_int "no bundles appeared" 0
    (List.length (Si_slim.Dmi.nested_bundles dmi root));
  (* A successful one commits. *)
  let result =
    Si_slim.Dmi.atomically dmi (fun () ->
        Ok (Si_slim.Dmi.create_bundle dmi ~name:"kept" ~parent:root ()))
  in
  check_bool "committed" true (Result.is_ok result);
  check_int "bundle kept" 1
    (List.length (Si_slim.Dmi.nested_bundles dmi root));
  check_int "store valid" 0
    (List.length
       (Si_slim.Dmi.validate dmi).Si_metamodel.Validate.violations)

let test_xml_roundtrip () =
  let trim = make_trim () in
  let trim2 =
    match Trim.of_xml (Trim.to_xml trim) with
    | Ok x -> x
    | Error e -> Alcotest.fail e
  in
  check_bool "equal" true (Trim.equal_contents trim trim2)

let test_xml_roundtrip_across_stores () =
  let light = Trim.create ~store:(module Store.List_store) () in
  Trim.add_all light sample;
  let columnar =
    match
      Trim.of_xml ~store:(module Store.Columnar_store) (Trim.to_xml light)
    with
    | Ok x -> x
    | Error e -> Alcotest.fail e
  in
  check "store" "columnar" (Trim.store_name columnar);
  check_bool "contents equal across implementations" true
    (Trim.equal_contents light columnar)

let test_file_roundtrip () =
  let trim = make_trim () in
  let path = Filename.temp_file "triples" ".xml" in
  (match Trim.save trim path with Ok () -> () | Error e -> Alcotest.fail e);
  let trim2 =
    match Trim.load path with Ok x -> x | Error e -> Alcotest.fail e
  in
  Sys.remove path;
  check_bool "file roundtrip" true (Trim.equal_contents trim trim2)

let test_xml_rejects_garbage () =
  check_bool "bad root" true
    (Result.is_error (Trim.of_xml (Si_xmlk.Node.element "nope" [])));
  let bad =
    Si_xmlk.Node.element "triples"
      [ Si_xmlk.Node.element "t" ~attrs:[ ("s", "a") ] [] ]
  in
  check_bool "missing predicate" true (Result.is_error (Trim.of_xml bad))

(* ------------------------------------------------------ property tests *)

let gen_obj =
  QCheck.Gen.(
    oneof
      [
        map (fun s -> Triple.resource ("r" ^ string_of_int s)) (int_range 0 20);
        map (fun s -> Triple.literal s)
          (string_size (int_range 0 8) ~gen:(oneofl [ 'a'; 'b'; '<'; '&' ]));
      ])

let gen_triple =
  QCheck.Gen.(
    let* s = int_range 0 20 in
    let* p = oneofl [ "name"; "content"; "mark"; "next" ] in
    let* o = gen_obj in
    return (Triple.make ("r" ^ string_of_int s) p o))

let gen_triples = QCheck.Gen.(list_size (int_range 0 60) gen_triple)

let arbitrary_triples =
  QCheck.make gen_triples ~print:(fun l ->
      String.concat "; " (List.map Triple.to_string l))

(* Cross-implementation conformance: a random interleaved add/remove/clear
   sequence must leave every registered implementation (list, columnar,
   sharded-columnar) with identical contents and identical answers for
   every bound-position select/count/exists probe — including the
   remove -> re-add cases that exercise stale pair-index cleaning and the
   clear -> re-add cases that exercise the pair-index reset. *)
let gen_op =
  QCheck.Gen.(
    frequency
      [
        (20, map (fun t -> `Add t) gen_triple);
        (20, map (fun t -> `Remove t) gen_triple);
        (1, return `Clear);
      ])

let arbitrary_ops =
  QCheck.make
    QCheck.Gen.(list_size (int_range 0 80) gen_op)
    ~print:(fun ops ->
      String.concat "; "
        (List.map
           (function
             | `Add t -> "add " ^ Triple.to_string t
             | `Remove t -> "remove " ^ Triple.to_string t
             | `Clear -> "clear")
           ops))

let prop_all_stores_conform =
  QCheck.Test.make
    ~name:"all registered stores agree on random op sequences" ~count:150
    arbitrary_ops (fun ops ->
      let probes =
        List.filter_map
          (function `Add t | `Remove t -> Some t | `Clear -> None)
          ops
      in
      let snapshot (module S : Store.S) =
        let s = S.create () in
        let step = function
          | `Add (t : Triple.t) ->
              let added = S.add s t in
              (* A pair-bound probe right after each add builds the
                 columnar pair indexes early, so later removes and
                 clears run against maintained ones. *)
              [
                Bool.to_int added;
                S.count ~subject:t.subject ~predicate:t.predicate s;
              ]
          | `Remove t -> [ Bool.to_int (S.remove s t) ]
          | `Clear ->
              S.clear s;
              []
        in
        let trace = List.map step ops in
        let sort = List.sort Triple.compare in
        let per_probe (tr : Triple.t) =
          let selects =
            [
              sort (S.select ~subject:tr.subject s);
              sort (S.select ~predicate:tr.predicate s);
              sort (S.select ~object_:tr.object_ s);
              sort (S.select ~subject:tr.subject ~predicate:tr.predicate s);
              sort (S.select ~predicate:tr.predicate ~object_:tr.object_ s);
              sort
                (S.select ~subject:tr.subject ~predicate:tr.predicate
                   ~object_:tr.object_ s);
            ]
          in
          let counts =
            [
              S.count ~subject:tr.subject s;
              S.count ~subject:tr.subject ~predicate:tr.predicate s;
              S.count ~predicate:tr.predicate ~object_:tr.object_ s;
            ]
          in
          let exists =
            [
              S.count ~subject:tr.subject s > 0;
              S.count ~subject:tr.subject ~predicate:tr.predicate s > 0;
              S.count ~predicate:tr.predicate ~object_:tr.object_ s > 0;
            ]
          in
          (selects, counts, exists)
        in
        (trace, S.size s, sort (S.select s), List.map per_probe probes)
      in
      match Store.implementations with
      | [] -> true
      | (_, first) :: rest ->
          let reference = snapshot first in
          List.for_all (fun (_, impl) -> snapshot impl = reference) rest)

let prop_xml_roundtrip =
  QCheck.Test.make ~name:"TRIM XML round-trip" ~count:200 arbitrary_triples
    (fun triples ->
      let trim = Trim.create () in
      Trim.add_all trim triples;
      match Trim.of_xml (Trim.to_xml trim) with
      | Ok trim2 -> Trim.equal_contents trim trim2
      | Error _ -> false)

(* Every bound-field select and count a probe triple can drive, in the
   order the store returns the rows. *)
let probe_answers trim probes =
  List.map
    (fun (tr : Triple.t) ->
      let s = tr.subject and p = tr.predicate and o = tr.object_ in
      ( [
          Trim.select ~subject:s trim;
          Trim.select ~predicate:p trim;
          Trim.select ~object_:o trim;
          Trim.select ~subject:s ~predicate:p trim;
          Trim.select ~subject:s ~object_:o trim;
          Trim.select ~predicate:p ~object_:o trim;
          Trim.select ~subject:s ~predicate:p ~object_:o trim;
        ],
        [
          Trim.count_select ~subject:s trim;
          Trim.count_select ~subject:s ~predicate:p trim;
          Trim.count_select ~subject:s ~object_:o trim;
          Trim.count_select ~predicate:p ~object_:o trim;
        ] ))
    probes

let sorted_answers trim probes =
  List.map
    (fun (selects, counts) ->
      (List.map (List.sort Triple.compare) selects, counts))
    (probe_answers trim probes)

(* The one load path, into every store: a snapshot decoded through
   [of_packed_columns] answers every probe like the list oracle, and in
   the same row order as the same store filled row by row. *)
let prop_binary_roundtrip =
  QCheck.Test.make ~name:"TRIM binary round-trip" ~count:200 arbitrary_triples
    (fun triples ->
      let trim = Trim.create () in
      Trim.add_all trim triples;
      let bytes = Trim.to_binary trim in
      let oracle = Trim.create ~store:(module Store.List_store) () in
      Trim.add_all oracle triples;
      let sections = Result.get_ok (Si_wal.Binary.decode bytes) in
      let rows = Result.get_ok (Trim.triples_of_binary_sections sections) in
      let loads_like_oracle (name, store) =
        match Trim.of_binary_sections ~store sections with
        | Error _ -> false
        | Ok loaded ->
            let filled = Trim.create ~store () in
            Trim.add_all filled rows;
            String.equal name (Trim.store_name loaded)
            && sorted_answers loaded triples = sorted_answers oracle triples
            && probe_answers loaded triples = probe_answers filled triples
            (* Equal stores produce equal bytes (rows are sorted). *)
            && String.equal bytes (Trim.to_binary loaded)
      in
      (match Trim.of_binary bytes with
      | Ok trim2 -> Trim.equal_contents trim trim2
      | Error _ -> false)
      && List.for_all loads_like_oracle Store.implementations)

(* A hand-built [atoms] + [triples] payload: [atoms] are the strings,
   each row is (subject, predicate, packed object) in local ids. *)
let binary_payload atoms rows =
  let u32 = Si_wal.Record.add_u32 in
  let a = Buffer.create 64 and t = Buffer.create 64 in
  u32 a (List.length atoms);
  List.iter
    (fun s ->
      u32 a (String.length s);
      Buffer.add_string a s)
    atoms;
  u32 t (List.length rows);
  List.iter
    (fun (s, p, o) ->
      u32 t s;
      u32 t p;
      u32 t o)
    rows;
  [
    (Trim.atoms_section, Buffer.contents a);
    (Trim.triples_section, Buffer.contents t);
  ]

let test_binary_hand_built () =
  let atoms = [ "bin-s"; "bin-p"; "bin-o" ] in
  let row = (0, 1, 2 * 2) in
  let stored = Triple.make "bin-s" "bin-p" (Triple.resource "bin-o") in
  let load store rows =
    Trim.of_binary_sections ~store (binary_payload atoms rows)
  in
  List.iter
    (fun (name, store) ->
      (match load store [ row; row ] with
      | Error e -> Alcotest.failf "%s: duplicate row: %s" name e
      | Ok t ->
          check_int (name ^ ": duplicate row dropped") 1 (Trim.size t);
          Alcotest.(check (list triple_testable))
            (name ^ ": one row selected") [ stored ]
            (Trim.select ~subject:"bin-s" t));
      check_bool
        (name ^ ": out-of-range atom id is an error")
        true
        (Result.is_error (load store [ row; (0, 7, 2 * 2) ])))
    Store.implementations

let binary_roundtrip_test =
  let name, speed, run = QCheck_alcotest.to_alcotest prop_binary_roundtrip in
  ( name,
    speed,
    fun () ->
      run ();
      test_binary_hand_built () )

let prop_binary_xml_agree =
  QCheck.Test.make ~name:"binary and XML persistence agree" ~count:100
    arbitrary_triples (fun triples ->
      let trim = Trim.create () in
      Trim.add_all trim triples;
      match (Trim.of_binary (Trim.to_binary trim), Trim.of_xml (Trim.to_xml trim)) with
      | Ok a, Ok b -> Trim.equal_contents a b
      | _ -> false)

let prop_view_is_sound =
  QCheck.Test.make ~name:"view triples all reachable, subjects in closure"
    ~count:200 arbitrary_triples (fun triples ->
      let trim = Trim.create () in
      Trim.add_all trim triples;
      match Trim.subjects trim with
      | [] -> true
      | root :: _ ->
          let resources = Trim.reachable_resources trim root in
          Trim.view trim root
          |> List.for_all (fun (tr : Triple.t) ->
                 List.mem tr.subject resources))

let props =
  List.map QCheck_alcotest.to_alcotest
    [ prop_all_stores_conform; prop_xml_roundtrip ]
  @ [ binary_roundtrip_test ]
  @ List.map QCheck_alcotest.to_alcotest
      [ prop_binary_xml_agree; prop_view_is_sound ]

let suite =
  [ ("triple basics", `Quick, test_triple_basics) ]
  @ List.concat_map
      (fun (_, impl) -> store_tests impl)
      Store.implementations
  @ [
      ("sharded: parallel mixed operations", `Quick,
       test_sharded_parallel_mixed_ops);
      ("sharded: pair indexes survive concurrent churn", `Quick,
       test_sharded_stale_pair_after_domains);
      ("atom: intern/find/to_string round-trip", `Quick, test_atom_roundtrip);
      ("atom: find never interns", `Quick, test_atom_find_never_interns);
      ("atom: canon returns stored instances", `Quick, test_atom_canon);
      ("atom: ids stable across growth", `Quick, test_atom_growth_dense_ids);
      ("atom: parallel intern converges", `Quick, test_atom_parallel_intern);
      ("atom: intern_all is Array.map intern", `Quick,
       test_atom_intern_all_is_map_intern);
      ("atom: parallel intern_all agrees", `Quick,
       test_atom_intern_all_parallel);
      ("columnar: compaction preserves contents", `Quick,
       test_columnar_compaction);
      ("columnar: removals from a loaded base", `Quick,
       test_columnar_base_tombstones);
      ("columnar: lock-free readers match the oracle at their version",
       `Quick, test_readers_against_oracle);
      ("sharded-columnar: parallel adds", `Quick,
       test_sharded_columnar_parallel);
    ]
  @ [
      ("trim: typed accessors", `Quick, test_trim_accessors);
      ("trim: set replaces", `Quick, test_trim_set);
      ("trim: remove_subject", `Quick, test_trim_remove_subject);
      ("trim: count_select & exists", `Quick, test_trim_count_exists);
      ("trim: id generation", `Quick, test_new_id);
      ("trim: reachability view", `Quick, test_view);
      ("trim: view is cycle-safe", `Quick, test_view_cycle_safe);
      ("trim: view of unknown resource", `Quick, test_view_of_leaf);
      ("trim: subjects & predicates", `Quick, test_subjects_predicates);
      ("trim: transaction commit", `Quick, test_transaction_commit);
      ("trim: rollback on Error", `Quick, test_transaction_rollback_on_error);
      ("trim: rollback on exception", `Quick,
       test_transaction_rollback_on_exception);
      ("trim: no nested transactions", `Quick, test_transaction_no_nesting);
      ("dmi: atomically", `Quick, test_dmi_atomically);
      ("trim: XML round-trip", `Quick, test_xml_roundtrip);
      ("trim: XML round-trip across stores", `Quick,
       test_xml_roundtrip_across_stores);
      ("trim: file round-trip", `Quick, test_file_roundtrip);
      ("trim: XML rejects garbage", `Quick, test_xml_rejects_garbage);
    ]
  @ props
