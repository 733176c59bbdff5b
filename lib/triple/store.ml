module type S = sig
  type t

  val create : unit -> t
  val name : string
  val add : t -> Triple.t -> bool
  val remove : t -> Triple.t -> bool
  val mem : t -> Triple.t -> bool
  val size : t -> int
  val clear : t -> unit

  val select :
    ?subject:string -> ?predicate:string -> ?object_:Triple.obj -> t ->
    Triple.t list

  val count :
    ?subject:string -> ?predicate:string -> ?object_:Triple.obj -> t -> int

  val of_packed_columns : int array -> int array -> int array -> t
end

(* The triple a packed row denotes, built from canonical atom strings;
   objects are packed as [atom id * 2 + tag] (tag 1 = literal). *)
let canonical sid pid packed =
  let o = Atom.to_string (packed lsr 1) in
  Triple.make (Atom.to_string sid) (Atom.to_string pid)
    (if packed land 1 = 0 then Triple.Resource o else Triple.Literal o)

let check_columns who subs preds objs =
  let n = Array.length subs in
  if Array.length preds <> n || Array.length objs <> n then
    invalid_arg (who ^ ".of_packed_columns: column lengths differ")

(* Option arguments rather than optional ones, so the per-row loop in
   [List_store.count] inlines it: a call per row would cost more than
   the comparisons. *)
let[@inline] matches subject predicate object_ (t : Triple.t) =
  (match subject with None -> true | Some s -> String.equal s t.subject)
  && (match predicate with
     | None -> true
     | Some p -> String.equal p t.predicate)
  && match object_ with None -> true | Some o -> Triple.obj_equal o t.object_

module List_store = struct
  type t = { mutable triples : Triple.t list; mutable count : int }

  let name = "list"
  let create () = { triples = []; count = 0 }
  let mem t triple = List.exists (Triple.equal triple) t.triples

  let add t triple =
    if mem t triple then false
    else begin
      t.triples <- triple :: t.triples;
      t.count <- t.count + 1;
      true
    end

  let remove t triple =
    if mem t triple then begin
      t.triples <- List.filter (fun x -> not (Triple.equal triple x)) t.triples;
      t.count <- t.count - 1;
      true
    end
    else false

  let size t = t.count

  let clear t =
    t.triples <- [];
    t.count <- 0

  let select ?subject ?predicate ?object_ t =
    List.filter (matches subject predicate object_) t.triples

  let count ?subject ?predicate ?object_ t =
    match (subject, predicate, object_) with
    | None, None, None -> t.count
    | _ ->
        let rec go n = function
          | [] -> n
          | tr :: rest ->
              let hit = matches subject predicate object_ tr in
              go (if hit then n + 1 else n) rest
        in
        go 0 t.triples

  (* Rows materialized through [add], so duplicates drop and the list
     ends up in the order row-by-row loading gives. *)
  let of_packed_columns subs preds objs =
    check_columns "List_store" subs preds objs;
    let t = create () in
    Array.iteri
      (fun r sid -> ignore (add t (canonical sid preds.(r) objs.(r))))
      subs;
    t
end

let columnar_compact_count = Si_obs.Registry.counter "store.columnar.compact"
let columnar_compact_latency = Si_obs.Registry.histogram "store.columnar.compact"
let columnar_pair_build_count =
  Si_obs.Registry.counter "store.columnar.pair_build"

module Columnar_store = struct
  (* Triples held column-wise as parallel int arrays over {!Atom} ids:
     one column per field, objects packed as [id * 2 + tag] (tag 0 =
     resource, 1 = literal) so a whole object compares as one int. A
     parallel [rows] column keeps the canonical materialized [Triple.t]
     per row, built once at add time from the atom table, so selects
     emit without re-allocating and every string a select returns is the
     canonical interned instance.

     Removal tombstones a row ([subs.(r) <- -1]); when tombstones pass
     half the occupancy the store compacts — rewrites the columns dense
     and rebuilds the indexes — so scans stay cache-dense. Indexes are
     int-keyed: single-field and (subject, predicate) / (predicate,
     object) pair buckets of row indices, each with an eagerly
     maintained live count, so [count] on any indexed combination is
     O(1) — no bucket walk. Bucket item lists are cleaned lazily, the
     next time a select walks them.

     Read-only entry points resolve strings with [Atom.find], never
     [Atom.intern]: probing for a string that was never stored (as
     [Trim.new_id] does in a loop) must not grow the process-wide atom
     table. Single-domain; {!Sharded_columnar} shares it. *)

  type bucket = {
    mutable items : int list;  (* row indices; stale entries linger *)
    mutable live : int;  (* exact, maintained eagerly on add/remove *)
  }

  (* Single-field indexes are int-keyed hashtables over atom ids. NOT
     dense arrays indexed by id, tempting as that reads: atom ids are
     process-global and only grow, so a dense array must span up to the
     largest id the store touches — and a ten-triple store created late
     in a process's life can touch an id in the millions, turning every
     small fresh store (a mapping target, a snapshot being recovered)
     into a multi-megabyte allocation. A hashtable costs ~30 ns more
     per probe and stays proportional to what the store actually
     holds. *)
  module Aidx = struct
    type nonrec t = { table : (int, bucket) Hashtbl.t }

    let create n = { table = Hashtbl.create (max 16 n) }
    let get t i = Hashtbl.find_opt t.table i

    let bucket t i =
      match Hashtbl.find_opt t.table i with
      | Some b -> b
      | None ->
          let b = { items = []; live = 0 } in
          Hashtbl.add t.table i b;
          b

    let reset t = Hashtbl.reset t.table
  end

  type t = {
    mutable subs : int array;  (* atom id; -1 tombstones the row *)
    mutable preds : int array;
    mutable objs : int array;  (* atom id * 2 + tag *)
    mutable rows : Triple.t array;  (* canonical materialization *)
    mutable len : int;  (* rows in use, tombstones included *)
    mutable live : int;
    (* Primary set: flat open-addressing table over row indexes. A slot
       is -1 (empty), -2 (deleted), or a live row index; the key of a
       slot is read straight out of the columns, so a membership probe
       is one hash mix plus int compares against cache-dense arrays —
       no key tuple is ever allocated or structurally hashed. Load is
       kept at or below 1/2, rehashed to 1/4 on growth. *)
    mutable slots : int array;
    mutable slot_dead : int;  (* deleted slots awaiting a rehash *)
    by_s : Aidx.t;  (* indexed by subject atom id *)
    by_p : Aidx.t;  (* indexed by predicate atom id *)
    by_o : Aidx.t;  (* indexed by packed object *)
    mutable by_sp : (int, bucket) Hashtbl.t;  (* keyed by [key_sp] *)
    mutable by_po : (int, bucket) Hashtbl.t;  (* keyed by [key_po] *)
    (* The pair indexes are built lazily, on the first pair-bound query
       ([ensure_pairs]), and sized then for the rows they will hold:
       bulk loads and write-heavy phases never pay for them, and once
       built they are maintained eagerly like the single-field indexes.
       Compaction and [clear] drop them back to unbuilt. *)
    mutable pairs_built : bool;
  }

  (* Pair-index keys packed into one int: no tuple allocation per probe
     and the int hash is a single mix instead of a structural traversal.
     Atom ids are bounded far below 2^30 by memory (every atom costs
     tens of bytes), so [sid lsl 31] and [pid lsl 32] cannot collide
     into each other's bits within OCaml's 63-bit ints. *)
  let key_sp sid pid = (sid lsl 31) lor pid
  let key_po pid packed = (pid lsl 32) lor packed

  let name = "columnar"
  let dummy = Triple.make "" "" (Triple.Resource "")

  (* Smallest power of two holding [n] keys at load <= 1/4. *)
  let slot_capacity n =
    let rec up c = if c >= 4 * n then c else up (2 * c) in
    up 64

  let create () =
    {
      subs = Array.make 16 (-1);
      preds = Array.make 16 (-1);
      objs = Array.make 16 (-1);
      rows = Array.make 16 dummy;
      len = 0;
      live = 0;
      slots = Array.make (slot_capacity 0) (-1);
      slot_dead = 0;
      by_s = Aidx.create 0;
      by_p = Aidx.create 0;
      by_o = Aidx.create 0;
      by_sp = Hashtbl.create 1;
      by_po = Hashtbl.create 1;
      pairs_built = false;
    }

  (* One multiply-xor round per field; the final mask keeps the result
     a valid non-negative index. *)
  let hash3 s p o =
    let mix h k =
      let h = (h lxor k) * 0x9E3779B97F4A7C1 in
      h lxor (h lsr 29)
    in
    mix (mix (mix 0x2545F4914F6CDD1 s) p) o land max_int

  (* Row index holding (s, p, o), or -1. *)
  let probe_find t s p o =
    let mask = Array.length t.slots - 1 in
    let i = ref (hash3 s p o land mask) in
    let found = ref (-3) in
    while !found = -3 do
      let row = t.slots.(!i) in
      if row = -1 then found := -1
      else if
        row >= 0 && t.subs.(row) = s && t.preds.(row) = p && t.objs.(row) = o
      then found := row
      else i := (!i + 1) land mask
    done;
    !found

  (* Insert [row] under (s, p, o), reusing the first deleted slot on its
     probe path; the caller has established the key is absent. *)
  let probe_insert t s p o row =
    let mask = Array.length t.slots - 1 in
    let i = ref (hash3 s p o land mask) in
    let target = ref (-1) in
    while !target = -1 do
      let r = t.slots.(!i) in
      if r = -1 then target := !i
      else if r = -2 then begin
        target := !i;
        t.slot_dead <- t.slot_dead - 1
      end
      else i := (!i + 1) land mask
    done;
    t.slots.(!target) <- row

  let probe_remove t s p o =
    let mask = Array.length t.slots - 1 in
    let i = ref (hash3 s p o land mask) in
    let stop = ref false in
    while not !stop do
      let row = t.slots.(!i) in
      if row = -1 then stop := true (* absent; caller resolved it first *)
      else if
        row >= 0 && t.subs.(row) = s && t.preds.(row) = p && t.objs.(row) = o
      then begin
        t.slots.(!i) <- -2;
        t.slot_dead <- t.slot_dead + 1;
        stop := true
      end
      else i := (!i + 1) land mask
    done

  (* Rebuild the slot table from the live columns (all keys distinct, so
     plain empty-slot probes suffice). Also how deleted slots are
     purged. *)
  let rehash_slots t =
    let cap = slot_capacity t.live in
    let slots = Array.make cap (-1) in
    let mask = cap - 1 in
    for row = 0 to t.len - 1 do
      let s = t.subs.(row) in
      if s >= 0 then begin
        let i = ref (hash3 s t.preds.(row) t.objs.(row) land mask) in
        while slots.(!i) <> -1 do
          i := (!i + 1) land mask
        done;
        slots.(!i) <- row
      end
    done;
    t.slots <- slots;
    t.slot_dead <- 0

  let ensure_slot_room t =
    if 2 * (t.live + t.slot_dead + 1) > Array.length t.slots then
      rehash_slots t

  let pack_tag id = function Triple.Resource _ -> 2 * id | Triple.Literal _ -> (2 * id) + 1

  (* Write path: interns. *)
  let pack_obj o =
    pack_tag (Atom.intern (match o with Triple.Resource v | Triple.Literal v -> v)) o

  (* Read path: a never-interned string cannot be stored, so a miss
     means "matches nothing". *)
  let find_packed o =
    match Atom.find (match o with Triple.Resource v | Triple.Literal v -> v) with
    | Some id -> Some (pack_tag id o)
    | None -> None

  let bucket table key =
    match Hashtbl.find_opt table key with
    | Some b -> b
    | None ->
        let b = { items = []; live = 0 } in
        Hashtbl.add table key b;
        b

  let push table key row =
    let b = bucket table key in
    b.items <- row :: b.items;
    b.live <- b.live + 1

  let apush idx key row =
    let b = Aidx.bucket idx key in
    b.items <- row :: b.items;
    b.live <- b.live + 1

  let forget table key =
    match Hashtbl.find_opt table key with
    | Some (b : bucket) -> b.live <- b.live - 1
    | None -> assert false (* every stored row was pushed at add time *)

  let aforget idx key =
    match Aidx.get idx key with
    | Some (b : bucket) -> b.live <- b.live - 1
    | None -> assert false (* every stored row was pushed at add time *)

  (* Callers guarantee the key is absent ([add] checks membership,
     [compact_run] starts from a reset table) and the slot table has
     room ([add] grows it first, bulk loads pre-size it). *)
  let reindex t row sid pid packed =
    probe_insert t sid pid packed row;
    apush t.by_s sid row;
    apush t.by_p pid row;
    apush t.by_o packed row;
    if t.pairs_built then begin
      push t.by_sp (key_sp sid pid) row;
      push t.by_po (key_po pid packed) row
    end

  let grow_columns t =
    let cap = max 16 (2 * Array.length t.subs) in
    let extend dflt col =
      let fresh = Array.make cap dflt in
      Array.blit col 0 fresh 0 t.len;
      fresh
    in
    t.subs <- extend (-1) t.subs;
    t.preds <- extend (-1) t.preds;
    t.objs <- extend (-1) t.objs;
    t.rows <- extend dummy t.rows

  (* Rewrite the columns dense (dropping tombstones) and rebuild every
     index; row order is preserved, row indices are not. *)
  let compact_run t =
    let cap = max 16 t.live in
    let subs = Array.make cap (-1) in
    let preds = Array.make cap (-1) in
    let objs = Array.make cap (-1) in
    let rows = Array.make cap dummy in
    t.slots <- Array.make (slot_capacity t.live) (-1);
    t.slot_dead <- 0;
    Aidx.reset t.by_s;
    Aidx.reset t.by_p;
    Aidx.reset t.by_o;
    Hashtbl.reset t.by_sp;
    Hashtbl.reset t.by_po;
    t.pairs_built <- false;
    let next = ref 0 in
    for i = 0 to t.len - 1 do
      if t.subs.(i) >= 0 then begin
        let r = !next in
        subs.(r) <- t.subs.(i);
        preds.(r) <- t.preds.(i);
        objs.(r) <- t.objs.(i);
        rows.(r) <- t.rows.(i);
        incr next
      end
    done;
    t.subs <- subs;
    t.preds <- preds;
    t.objs <- objs;
    t.rows <- rows;
    t.len <- !next;
    for r = 0 to t.len - 1 do
      reindex t r t.subs.(r) t.preds.(r) t.objs.(r)
    done

  let compact t =
    Si_obs.Counter.incr columnar_compact_count;
    if Si_obs.Span.on () then
      Si_obs.Span.timed columnar_compact_latency ~layer:"store"
        ~op:"columnar.compact" (fun () -> compact_run t)
    else compact_run t

  let maybe_compact t =
    let dead = t.len - t.live in
    if dead > 64 && 2 * dead > t.len then compact t

  let add t (triple : Triple.t) =
    let sid = Atom.intern triple.subject in
    let pid = Atom.intern triple.predicate in
    let packed = pack_obj triple.object_ in
    if probe_find t sid pid packed >= 0 then false
    else begin
      if t.len = Array.length t.subs then grow_columns t;
      ensure_slot_room t;
      let row = t.len in
      t.subs.(row) <- sid;
      t.preds.(row) <- pid;
      t.objs.(row) <- packed;
      t.rows.(row) <- canonical sid pid packed;
      t.len <- row + 1;
      t.live <- t.live + 1;
      reindex t row sid pid packed;
      true
    end

  let resolve t (triple : Triple.t) =
    match (Atom.find triple.subject, Atom.find triple.predicate) with
    | Some sid, Some pid -> (
        match find_packed triple.object_ with
        | Some packed ->
            let row = probe_find t sid pid packed in
            if row >= 0 then Some row else None
        | None -> None)
    | _ -> None

  let mem t triple = resolve t triple <> None

  let remove t (triple : Triple.t) =
    match resolve t triple with
    | None -> false
    | Some row ->
        let sid = t.subs.(row) and pid = t.preds.(row) and packed = t.objs.(row) in
        probe_remove t sid pid packed;
        t.subs.(row) <- -1;
        t.live <- t.live - 1;
        aforget t.by_s sid;
        aforget t.by_p pid;
        aforget t.by_o packed;
        if t.pairs_built then begin
          forget t.by_sp (key_sp sid pid);
          forget t.by_po (key_po pid packed)
        end;
        maybe_compact t;
        true

  let size t = t.live

  let clear t =
    t.subs <- Array.make 16 (-1);
    t.preds <- Array.make 16 (-1);
    t.objs <- Array.make 16 (-1);
    t.rows <- Array.make 16 dummy;
    t.len <- 0;
    t.live <- 0;
    t.slots <- Array.make (slot_capacity 0) (-1);
    t.slot_dead <- 0;
    Aidx.reset t.by_s;
    Aidx.reset t.by_p;
    Aidx.reset t.by_o;
    Hashtbl.reset t.by_sp;
    Hashtbl.reset t.by_po;
    t.pairs_built <- false

  (* Live row indices of a bucket, purging stale entries as we pass. *)
  let live_items t (b : bucket) =
    if b.live = 0 then begin
      if b.items <> [] then b.items <- [];
      []
    end
    else begin
      let stale = ref false in
      let keep =
        List.filter
          (fun r ->
            if t.subs.(r) >= 0 then true
            else begin
              stale := true;
              false
            end)
          b.items
      in
      if !stale then b.items <- keep;
      keep
    end

  (* First pair-bound query after a bulk load, compaction, or [clear]:
     build both pair indexes in one pass over the live rows. *)
  let ensure_pairs t =
    if not t.pairs_built then begin
      Si_obs.Counter.incr columnar_pair_build_count;
      t.pairs_built <- true;
      t.by_sp <- Hashtbl.create (max 64 t.live);
      t.by_po <- Hashtbl.create (max 64 t.live);
      for row = 0 to t.len - 1 do
        let sid = t.subs.(row) in
        if sid >= 0 then begin
          push t.by_sp (key_sp sid t.preds.(row)) row;
          push t.by_po (key_po t.preds.(row) t.objs.(row)) row
        end
      done
    end

  (* The bound fields of a selection as atom ids (packed for the
     object), -1 where unbound; [None] when a bound string was never
     interned, so nothing can match. Ids are process-global: one
     resolution serves every shard of a {!Sharded_columnar}. *)
  let resolve ?subject ?predicate ?object_ () =
    let id find = function None -> Some (-1) | Some v -> find v in
    match
      (id Atom.find subject, id Atom.find predicate, id find_packed object_)
    with
    | Some s, Some p, Some o -> Some (s, p, o)
    | _ -> None

  (* Where the rows of a resolved selection live. The subject+object
     (predicate free) combination has no pair index: it is the subject
     bucket filtered on the packed object int. *)
  type hits =
    | All_rows
    | Row of int  (* the one exact row, or -1 *)
    | Bucket of bucket option
    | Bucket_with_object of bucket option * int

  let hits t (s, p, o) =
    match (s >= 0, p >= 0, o >= 0) with
    | false, false, false -> All_rows
    | true, true, true -> Row (probe_find t s p o)
    | true, true, false ->
        ensure_pairs t;
        Bucket (Hashtbl.find_opt t.by_sp (key_sp s p))
    | true, false, true -> Bucket_with_object (Aidx.get t.by_s s, o)
    | true, false, false -> Bucket (Aidx.get t.by_s s)
    | false, true, true ->
        ensure_pairs t;
        Bucket (Hashtbl.find_opt t.by_po (key_po p o))
    | false, true, false -> Bucket (Aidx.get t.by_p p)
    | false, false, true -> Bucket (Aidx.get t.by_o o)

  let select_ids t ids =
    match hits t ids with
    | Row (-1) | Bucket None | Bucket_with_object (None, _) -> []
    | All_rows ->
        let acc = ref [] in
        for r = t.len - 1 downto 0 do
          if t.subs.(r) >= 0 then acc := t.rows.(r) :: !acc
        done;
        !acc
    | Row r -> [ t.rows.(r) ]
    | Bucket (Some b) -> List.map (fun r -> t.rows.(r)) (live_items t b)
    | Bucket_with_object (Some b, o) ->
        List.filter_map
          (fun r -> if t.objs.(r) = o then Some t.rows.(r) else None)
          (live_items t b)

  (* Every indexed combination answers from the bucket's live count. *)
  let count_ids t ids =
    match hits t ids with
    | Row (-1) | Bucket None | Bucket_with_object (None, _) -> 0
    | All_rows -> t.live
    | Row _ -> 1
    | Bucket (Some b) -> b.live
    | Bucket_with_object (Some b, o) ->
        List.fold_left
          (fun n r -> if t.objs.(r) = o then n + 1 else n)
          0 (live_items t b)

  let select ?subject ?predicate ?object_ t =
    match resolve ?subject ?predicate ?object_ () with
    | None -> []
    | Some ids -> select_ids t ids

  let count ?subject ?predicate ?object_ t =
    match resolve ?subject ?predicate ?object_ () with
    | None -> 0
    | Some ids -> count_ids t ids

  (* Bulk load for snapshot recovery. The store takes ownership of the
     three column arrays — the decoder fills them and hands them over,
     so nothing is copied and no per-row tuple is ever allocated. The
     primary set and the subject and object indexes are pre-sized for
     the full row count (no growth doublings, no rehashes); the
     predicate index holds a handful of keys, and the pair indexes are
     left to [ensure_pairs]. Input rows come from a decoded snapshot
     of a set, so duplicates are not expected — but the payload is
     untrusted, so the primary-set probe stays and a duplicate row is
     compacted away in place (the write cursor trails the read cursor,
     and every position behind the read cursor has been consumed). *)
  let of_packed_columns subs preds objs =
    check_columns "Columnar_store" subs preds objs;
    let n = Array.length subs in
    let t =
      {
        subs;
        preds;
        objs;
        rows = Array.make (max 16 n) dummy;
        len = 0;
        live = 0;
        slots = Array.make (slot_capacity n) (-1);
        slot_dead = 0;
        by_s = Aidx.create n;
        by_p = Aidx.create 0;
        by_o = Aidx.create n;
        by_sp = Hashtbl.create 1;
        by_po = Hashtbl.create 1;
        pairs_built = false;
      }
    in
    for r = 0 to n - 1 do
      let sid = t.subs.(r) and pid = t.preds.(r) and packed = t.objs.(r) in
      if probe_find t sid pid packed < 0 then begin
        let row = t.len in
        t.subs.(row) <- sid;
        t.preds.(row) <- pid;
        t.objs.(row) <- packed;
        t.rows.(row) <- canonical sid pid packed;
        t.len <- row + 1;
        t.live <- row + 1;
        reindex t row sid pid packed
      end
    done;
    t
end

module Sharded_columnar = struct
  (* [shard_count] columnar stores, each behind its own mutex, with
     triples placed by a hash of their subject. Writes and subject-bound
     reads touch exactly one shard, so concurrent domains working on
     different subjects proceed in parallel instead of serializing on one
     global lock. Operations that cannot be routed by subject (predicate-
     or object-bound selects, [size], ...) visit the shards one at a time,
     locking each in turn; they see a consistent snapshot of every
     individual shard but not of the store as a whole — same caveat as
     any store without a global lock. Locks are never nested, so the
     store cannot deadlock. *)
  module B = Columnar_store

  let shard_count = 8

  type t = { shards : B.t array; locks : Si_check.Lock.t array }

  let name = "sharded-columnar"

  let of_shards shards =
    {
      shards;
      locks =
        Array.init shard_count (fun _ ->
            Si_check.Lock.create ~class_:"store.shard");
    }

  let create () = of_shards (Array.init shard_count (fun _ -> B.create ()))
  let shard_of subject = Hashtbl.hash subject land max_int mod shard_count

  let with_shard t i f =
    Si_check.Lock.with_lock t.locks.(i) (fun () -> f t.shards.(i))

  let add t triple =
    with_shard t (shard_of triple.Triple.subject) (fun s -> B.add s triple)

  let remove t triple =
    with_shard t (shard_of triple.Triple.subject) (fun s -> B.remove s triple)

  let mem t triple =
    with_shard t (shard_of triple.Triple.subject) (fun s -> B.mem s triple)

  let fold_shards t f init =
    let acc = ref init in
    for i = 0 to shard_count - 1 do
      acc := with_shard t i (fun s -> f !acc s)
    done;
    !acc

  let size t = fold_shards t (fun n s -> n + B.size s) 0
  let clear t = fold_shards t (fun () s -> B.clear s) ()

  (* Bound strings are resolved to atom ids once, outside any lock. *)
  let select ?subject ?predicate ?object_ t =
    match (B.resolve ?subject ?predicate ?object_ (), subject) with
    | None, _ -> []
    | Some ids, Some s ->
        with_shard t (shard_of s) (fun sh -> B.select_ids sh ids)
    | Some ids, None ->
        List.concat
          (List.init shard_count (fun i ->
               with_shard t i (fun sh -> B.select_ids sh ids)))

  let count ?subject ?predicate ?object_ t =
    match (B.resolve ?subject ?predicate ?object_ (), subject) with
    | None, _ -> 0
    | Some ids, Some s ->
        with_shard t (shard_of s) (fun sh -> B.count_ids sh ids)
    | Some ids, None -> fold_shards t (fun n sh -> n + B.count_ids sh ids) 0

  (* Partition the rows by the shard [add] would route them to, keeping
     their order, then bulk-load each shard from its own columns. *)
  let of_packed_columns subs preds objs =
    check_columns "Sharded_columnar" subs preds objs;
    let row_shard = Array.map (fun sid -> shard_of (Atom.to_string sid)) subs in
    let sizes = Array.make shard_count 0 in
    Array.iter (fun i -> sizes.(i) <- sizes.(i) + 1) row_shard;
    let column () = Array.map (fun k -> Array.make k 0) sizes in
    let s_cols = column () and p_cols = column () and o_cols = column () in
    let fill = Array.make shard_count 0 in
    Array.iteri
      (fun r i ->
        let k = fill.(i) in
        s_cols.(i).(k) <- subs.(r);
        p_cols.(i).(k) <- preds.(r);
        o_cols.(i).(k) <- objs.(r);
        fill.(i) <- k + 1)
      row_shard;
    of_shards
      (Array.init shard_count (fun i ->
           B.of_packed_columns s_cols.(i) p_cols.(i) o_cols.(i)))
end

let implementations =
  [
    (List_store.name, (module List_store : S));
    (Columnar_store.name, (module Columnar_store : S));
    (Sharded_columnar.name, (module Sharded_columnar : S));
  ]
