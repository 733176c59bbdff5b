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

(* The triple a packed row denotes, built from the canonical strings of
   the atom table [names]; objects are packed as [atom id * 2 + tag]
   (tag 1 = literal). *)
let triple_of names sid pid packed =
  let o = names.(packed lsr 1) in
  Triple.make names.(sid) names.(pid)
    (if packed land 1 = 0 then Triple.Resource o else Triple.Literal o)

let canonical sid pid packed = triple_of (Atom.strings ()) sid pid packed

let pack_tag id = function
  | Triple.Resource _ -> 2 * id
  | Triple.Literal _ -> (2 * id) + 1

(* Write path: interns. *)
let pack_obj o =
  let (Triple.Resource v | Triple.Literal v) = o in
  pack_tag (Atom.intern v) o

(* A bound field's atom id (packed for the object), -1 when unbound, -2
   when its string was never interned: it cannot be stored, so nothing
   matches. Reads never intern. *)
let field = function
  | None -> -1
  | Some v -> ( match Atom.find v with Some id -> id | None -> -2)

let obj_field = function
  | None -> -1
  | Some o -> (
      let (Triple.Resource v | Triple.Literal v) = o in
      match Atom.find v with Some id -> pack_tag id o | None -> -2)

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

let compact_count = Si_obs.Registry.counter "store.columnar.compact"
let compact_latency = Si_obs.Registry.histogram "store.columnar.compact"

module Columnar_store = struct
  (* Readers take no lock: they load one snapshot record, published
     through an [Atomic.t] as {!Atom} does, and answer at its version,
     skipping delta rows past its length, chain cells of later versions
     and tombstones set after it. Once a snapshot is published the writer
     only fills empty slots, sets tombstones once and pushes chain cells
     in front of older ones; grown arrays are fresh and reached only
     through later snapshots. Writes run under [t.lock]. Reads resolve
     strings with [Atom.find], never [Atom.intern], so a probe for a
     never-stored string cannot grow the atom table. *)

  let name = "columnar"
  (* A compaction allocates a new base while the old one is live, so a
     store filled by adds stays in its delta this long: with 1,024 here,
     loading an 18.6k-triple pad from XML peaked a fifth higher in RSS. *)
  let min_churn = 32_768
  let summary_every = 2
  let short_run = 16

  (* Keys are found through open-addressing int tables, and pairs by
     binary search inside one key's run, never through dense arrays
     indexed by atom id: atom ids are process-global and only grow, so a
     small store created late in a process would allocate megabytes to
     span them. *)
  let[@inline] mix k =
    let h = k * 0x9E3779B97F4A7C1 in
    h lxor (h lsr 29)

  (* The first position in [lo, hi) of ascending [keys] holding >= [key]. *)
  let first_at_least (keys : int array) lo hi key =
    let lo = ref lo and hi = ref hi in
    while !lo < !hi do
      let mid = (!lo + !hi) lsr 1 in
      if keys.(mid) < key then lo := mid + 1 else hi := mid
    done;
    !lo

  (* A field's CSR index: rank [j] is [keys.(j)] (ascending), its rows are
     [rows.(offsets.(j))] to [rows.(offsets.(j + 1))], newest first, and
     [table] finds a key's rank (0 = empty, else rank + 1). *)
  type index = {
    table : int array;
    keys : int array;
    offsets : int array;
    rows : int array;
  }

  (* The rank of [key], or -1. *)
  let rank { table; keys; _ } key =
    let mask = Array.length table - 1 in
    let rec go i =
      let v = table.(i land mask) in
      if v = 0 then -1 else if keys.(v - 1) = key then v - 1 else go (i + 1)
    in
    go (mix key)

  (* Where rank [j]'s run starts and ends; empty for -1. *)
  let run_lo idx j = if j < 0 then 0 else idx.offsets.(j)
  let run_hi idx j = if j < 0 then 0 else idx.offsets.(j + 1)

  let rec bits_of v = if v = 0 then 0 else 1 + bits_of (v lsr 1)

  (* [col]'s index, filling [ranks] (unless empty) with each row's rank.
     Each row is packed under its key into one int (atom ids stay far
     below 2^30), newest row first, and an LSD radix sort on the key bits
     between [tmp] and [rows], in digits of at most 16 bits, groups the
     rows by key. Plain loops: this is most of a snapshot load. *)
  let index ~tmp ranks col =
    let n = Array.length col and top = ref 0 in
    let rb = bits_of n in
    Array.iter (fun k -> if k > !top then top := k) col;
    let kb = bits_of !top and widest = max 8 (min 16 rb) in
    let passes = (kb + widest - 1) / widest in
    let width = if passes = 0 then 0 else (kb + passes - 1) / passes in
    let digit = (1 lsl width) - 1 in
    let count = Array.make (digit + 2) 0 and rows = Array.make n 0 in
    let src = ref tmp and dst = ref rows in
    for i = 0 to n - 1 do
      tmp.(i) <- (col.(n - 1 - i) lsl rb) lor (n - 1 - i)
    done;
    for pass = 0 to passes - 1 do
      let sh = rb + (pass * width) and s = !src and d = !dst in
      Array.fill count 0 (digit + 2) 0;
      for i = 0 to n - 1 do
        let b = ((s.(i) lsr sh) land digit) + 1 in
        count.(b) <- count.(b) + 1
      done;
      for b = 1 to digit + 1 do
        count.(b) <- count.(b) + count.(b - 1)
      done;
      for i = 0 to n - 1 do
        let b = (s.(i) lsr sh) land digit in
        d.(count.(b)) <- s.(i);
        count.(b) <- count.(b) + 1
      done;
      src := d;
      dst := s
    done;
    let sorted = !src and k = ref 0 in
    for i = 0 to n - 1 do
      if i = 0 || sorted.(i) lsr rb <> sorted.(i - 1) lsr rb then incr k
    done;
    let keys = Array.make !k 0 and offsets = Array.make (!k + 1) n in
    let j = ref (-1) in
    for i = 0 to n - 1 do
      let key = sorted.(i) lsr rb and r = sorted.(i) land ((1 lsl rb) - 1) in
      if !j < 0 || keys.(!j) <> key then begin
        incr j;
        keys.(!j) <- key;
        offsets.(!j) <- i
      end;
      rows.(i) <- r;
      if Array.length ranks > 0 then ranks.(r) <- !j
    done;
    (* Load below 2/3. *)
    let slots = Array.make (1 lsl bits_of (3 * !k / 2)) 0 in
    let mask = Array.length slots - 1 in
    Array.iteri
      (fun j key ->
        let i = ref (mix key land mask) in
        while slots.(!i) <> 0 do
          i := (!i + 1) land mask
        done;
        slots.(!i) <- j + 1)
      keys;
    { table = slots; keys; offsets; rows }

  (* The rows of [order] placed stably into the runs of their ranks, and
     the [col] of each placed row. *)
  let distribute ranks offsets order col =
    let fill = Array.sub offsets 0 (Array.length offsets - 1) in
    let rows = Array.make (Array.length order) 0 in
    let keys = Array.make (Array.length order) 0 in
    Array.iter
      (fun r ->
        let j = ranks.(r) in
        rows.(fill.(j)) <- r;
        keys.(fill.(j)) <- col.(r);
        fill.(j) <- fill.(j) + 1)
      order;
    (rows, keys)

  type base = {
    n : int;
    subs : int array;
    preds : int array;
    objs : int array;
    s : index;
    p : index;
    o : index;
    sp : int array;  (* [s]'s runs, each by predicate, newest first within *)
    sp_preds : int array;  (* the predicate of each row of [sp] *)
    po : int array;  (* [p]'s runs, each by object, newest first within *)
    po_objs : int array;  (* the object of each row of [po] *)
  }

  (* [p.rows] placed stably into subject runs gives [sp], and [o.rows]
     placed into predicate runs gives [po]. *)
  let build subs preds objs =
    let n = Array.length subs in
    let tmp = Array.make n 0 and s_ranks = Array.make n 0 in
    let p_ranks = Array.make n 0 in
    let s = index ~tmp s_ranks subs in
    let p = index ~tmp p_ranks preds in
    let o = index ~tmp [||] objs in
    let sp, sp_preds = distribute s_ranks s.offsets p.rows preds in
    let po, po_objs = distribute p_ranks p.offsets o.rows objs in
    { n; subs; preds; objs; s; p; o; sp; sp_preds; po; po_objs }

  (* Whether a bulk load repeats a row: equal rows share a group of
     [sp], so only groups of several rows are hashed. *)
  let repeats b =
    let seen = Hashtbl.create 16 in
    let same i j =
      b.subs.(b.sp.(i)) = b.subs.(b.sp.(j)) && b.sp_preds.(i) = b.sp_preds.(j)
    in
    let rec scan x =
      x < b.n
      &&
      let o = b.objs.(b.sp.(x)) in
      if x > 0 && same x (x - 1) then
        Hashtbl.mem seen o || (Hashtbl.add seen o (); scan (x + 1))
      else begin
        Hashtbl.clear seen;
        if x + 1 < b.n && same x (x + 1) then Hashtbl.add seen o ();
        scan (x + 1)
      end
    in
    scan 0

  (* A delta bucket's history, newest first. A [Cell] is one change at
     [ver]: [row] the delta row an add appended or -1 for a removal, [live]
     the key's net row count against the base after it. A [Rows] summary
     lists the rows live at [ver], where readers at or after [ver] stop; one
     is made once the cells since the last outnumber [summary_every] and
     its rows ([left] counts down), so a walk stays near the live rows. *)
  type chain =
    | Nil
    | Cell of { row : int; live : int; ver : int; left : int; next : chain }
    | Rows of { rows : int array; live : int; ver : int; next : chain }

  type bucket = { key : int; mutable head : chain }

  let no_bucket = { key = -1; head = Nil }

  (* Delta tables by key: a field, or subject and predicate in one int. *)
  let by_s, by_p, by_o, by_sp = (0, 1, 2, 3)
  let key_sp sid pid = (sid lsl 31) lor pid

  type snap = {
    ver : int;  (* effective writes since the store was created *)
    live : int;
    base : base;
    died : int array;  (* per base row, the version removing it; [||]: none *)
    removed : int;  (* rows removed since the base was built *)
    dlen : int;
    dsubs : int array;
    dpreds : int array;
    dobjs : int array;
    ddied : int array;  (* per delta row, the version removing it, or max_int *)
    tabs : bucket array array;  (* open addressing, [no_bucket] = empty *)
  }

  type t = {
    state : snap Atomic.t;
    lock : Si_check.Lock.t;
    used : int array;  (* buckets per delta table; writer only *)
  }

  let initial ~ver base =
    {
      ver;
      live = base.n;
      base;
      died = [||];
      removed = 0;
      dlen = 0;
      dsubs = Array.make 16 0;
      dpreds = Array.make 16 0;
      dobjs = Array.make 16 0;
      ddied = Array.make 16 max_int;
      tabs = Array.init 4 (fun _ -> Array.make 16 no_bucket);
    }

  let of_base base =
    {
      state = Atomic.make (initial ~ver:0 base);
      lock = Si_check.Lock.create ~class_:"store.writer";
      used = Array.make 4 0;
    }

  let empty = build [||] [||] [||]  (* immutable, so every store shares it *)
  let create () = of_base empty
  let version t = (Atomic.get t.state).ver

  let bucket_of tab key =
    let mask = Array.length tab - 1 in
    let rec go i =
      let b = tab.(i land mask) in
      if b.key = key || b == no_bucket then b else go (i + 1)
    in
    go (mix key)

  let rec chain_at v = function
    | (Cell { ver; next; _ } | Rows { ver; next; _ }) when ver > v ->
        chain_at v next
    | c -> c

  let history s j key = chain_at s.ver (bucket_of s.tabs.(j) key).head
  let net_of = function Nil -> 0 | Cell { live; _ } | Rows { live; _ } -> live

  (* [f] over the rows of a chain cut at version [v] that [died] says are
     live at [v], newest first. *)
  let fold_live (died : int array) v f acc chain =
    let rec go acc = function
      | Nil -> acc
      | Cell { row; next; _ } ->
          go (if row >= 0 && died.(row) > v then f acc row else acc) next
      | Rows { rows; _ } ->
          Array.fold_left (fun a r -> if died.(r) > v then f a r else a) acc
            rows
    in
    go acc chain

  let passes preds objs fp fo r =
    (fp < 0 || preds.(r) = fp) && (fo < 0 || objs.(r) = fo)

  let base_live s r = Array.length s.died = 0 || s.died.(r) > s.ver

  let base_triple names b r = triple_of names b.subs.(r) b.preds.(r) b.objs.(r)

  let delta_triple names s r =
    triple_of names s.dsubs.(r) s.dpreds.(r) s.dobjs.(r)

  (* How a selection bound on one or two fields reads: the delta chain
     under [dkey] in table [dtab] and the base rows [perm.(lo)] to
     [perm.(hi - 1)], both filtered on [fp] and [fo] (-1: no filter),
     unless the base range is [exact]. A predicate+object read scans the
     object's run when it is short, else binary-searches the predicate's
     run by object. *)
  type plan = {
    dtab : int;
    dkey : int;
    fp : int;
    fo : int;
    perm : int array;
    lo : int;
    hi : int;
    exact : bool;
  }

  let plan b s p o =
    let run dtab dkey fp fo idx j =
      let perm = idx.rows and lo = run_lo idx j and hi = run_hi idx j in
      { dtab; dkey; fp; fo; perm; lo; hi; exact = fp < 0 && fo < 0 }
    in
    let pair dtab dkey fp perm keys idx j k =
      let lo = first_at_least keys (run_lo idx j) (run_hi idx j) k in
      let hi = first_at_least keys lo (run_hi idx j) (k + 1) in
      { dtab; dkey; fp; fo = -1; perm; lo; hi; exact = true }
    in
    if s >= 0 && p >= 0 then
      pair by_sp (key_sp s p) (-1) b.sp b.sp_preds b.s (rank b.s s) p
    else if s >= 0 then run by_s s (-1) o b.s (rank b.s s)
    else if o < 0 then run by_p p (-1) (-1) b.p (rank b.p p)
    else if p < 0 then run by_o o (-1) (-1) b.o (rank b.o o)
    else
      let jo = rank b.o o in
      if run_hi b.o jo - run_lo b.o jo <= short_run then
        run by_o o p (-1) b.o jo
      else pair by_o o p b.po b.po_objs b.p (rank b.p p) o

  (* Where (sid, pid, packed) is live in [s]: base row [r], delta row [r]
     as [-2 - r], or -1. The delta is searched through the subject+predicate
     chain or the object's, whichever holds fewer rows; the base through
     the object's run when short, else the subject's run by predicate. *)
  let locate s sid pid packed =
    let found acc r =
      let hit = s.dsubs.(r) = sid && passes s.dpreds s.dobjs pid packed r in
      if acc = -1 && hit then -2 - r else acc
    in
    let sc = history s by_sp (key_sp sid pid) in
    let chain =
      if net_of sc <= summary_every then sc
      else
        let oc = history s by_o packed in
        if net_of oc < net_of sc then oc else sc
    in
    match fold_live s.ddied s.ver found (-1) chain with
    | -1 when s.base.n = 0 -> -1
    | -1 ->
        let b = s.base in
        let jo = rank b.o packed in
        let short = run_hi b.o jo - run_lo b.o jo <= short_run in
        let pl = plan b (if short then -1 else sid) pid packed in
        let rec scan i =
          if i = pl.hi then -1
          else
            let r = pl.perm.(i) in
            let hit = b.subs.(r) = sid && passes b.preds b.objs pid packed r in
            if hit && base_live s r then r else scan (i + 1)
        in
        scan pl.lo
    | d -> d

  let base_passes b pl r = pl.exact || passes b.preds b.objs pl.fp pl.fo r

  (* The chain's rows that pass, newest first, as triples in front of
     [acc]: the cells' rows are listed on the way to the summary, whose
     array is consed from its oldest row. *)
  let delta_select names s fp fo chain acc =
    let keep acc r =
      if s.ddied.(r) > s.ver && passes s.dpreds s.dobjs fp fo r then
        delta_triple names s r :: acc
      else acc
    in
    let rec walk cells = function
      | Cell { row; next; _ } when row >= 0 -> walk (row :: cells) next
      | Cell { next; _ } -> walk cells next
      | c ->
          let rows = match c with Rows r -> r.rows | _ -> [||] in
          List.fold_left keep (Array.fold_right (Fun.flip keep) rows acc) cells
    in
    walk [] chain

  (* The atom table is loaded after the snapshot, so it names every id
     the snapshot holds. *)
  let select_snap s si pi oi =
    let names = Atom.strings () and b = s.base in
    if si < 0 && pi < 0 && oi < 0 then begin
      let acc = ref [] in
      for r = s.dlen - 1 downto 0 do
        if s.ddied.(r) > s.ver then acc := delta_triple names s r :: !acc
      done;
      for r = b.n - 1 downto 0 do
        if base_live s r then acc := base_triple names b r :: !acc
      done;
      !acc
    end
    else if si >= 0 && pi >= 0 && oi >= 0 then
      match locate s si pi oi with
      | -1 -> []
      | r when r >= 0 -> [ base_triple names b r ]
      | r -> [ delta_triple names s (-2 - r) ]
    else
      let pl = plan b si pi oi in
      let acc = ref [] in
      for i = pl.hi - 1 downto pl.lo do
        let r = pl.perm.(i) in
        if base_passes b pl r && base_live s r then
          acc := base_triple names b r :: !acc
      done;
      match history s pl.dtab pl.dkey with
      | Nil -> !acc
      | chain -> delta_select names s pl.fp pl.fo chain !acc

  (* An unfiltered count is a range length plus the chain's net count; a
     filtered one walks the chain, and the range only under filters or
     tombstones. *)
  let count_snap s si pi oi =
    if si < 0 && pi < 0 && oi < 0 then s.live
    else if si >= 0 && pi >= 0 && oi >= 0 then
      if locate s si pi oi = -1 then 0 else 1
    else
      let pl = plan s.base si pi oi in
      let chain = history s pl.dtab pl.dkey in
      if pl.fp < 0 && pl.fo < 0 then pl.hi - pl.lo + net_of chain
      else
        let delta n r =
          if passes s.dpreds s.dobjs pl.fp pl.fo r then n + 1 else n
        in
        let n = ref (fold_live s.ddied s.ver delta 0 chain) in
        if pl.exact && Array.length s.died = 0 then !n + pl.hi - pl.lo
        else begin
          for i = pl.lo to pl.hi - 1 do
            let r = pl.perm.(i) in
            if base_passes s.base pl r && base_live s r then incr n
          done;
          !n
        end

  let missing si pi oi = si = -2 || pi = -2 || oi = -2

  let select ?subject ?predicate ?object_ t =
    let s = field subject and p = field predicate and o = obj_field object_ in
    if missing s p o then [] else select_snap (Atomic.get t.state) s p o

  let count ?subject ?predicate ?object_ t =
    let s = field subject and p = field predicate and o = obj_field object_ in
    if missing s p o then 0 else count_snap (Atomic.get t.state) s p o

  (* [f] on the ids of [triple], unless one was never interned. *)
  let with_ids f ({ subject; predicate; object_ } : Triple.t) =
    let si = field (Some subject) and pi = field (Some predicate) in
    let oi = obj_field (Some object_) in
    (not (missing si pi oi)) && f si pi oi

  let mem t =
    with_ids (fun si pi oi -> locate (Atomic.get t.state) si pi oi <> -1)

  let size t = (Atomic.get t.state).live

  (* [head] with one more change at version [ver]; [died] holds the delta
     rows' removal versions as of [ver]. *)
  let push died head ~row ~step ~ver =
    let live = net_of head + step in
    let left =
      match head with
      | Nil -> summary_every
      | Cell c -> c.left - 1
      | Rows r -> max summary_every (Array.length r.rows)
    in
    let cell = Cell { row; live; ver; left; next = head } in
    if left > 0 then cell
    else
      let rows = List.rev (fold_live died ver (fun a r -> r :: a) [] cell) in
      Rows { rows = Array.of_list rows; live; ver; next = cell }

  let insert tab b =
    let mask = Array.length tab - 1 in
    let i = ref (mix b.key land mask) in
    while tab.(!i) != no_bucket do
      i := (!i + 1) land mask
    done;
    tab.(!i) <- b

  (* Record the change under [key] in table [j]. A full table is replaced
     in a fresh copy of [tabs]: published snapshots keep theirs. *)
  let note1 t s tabs j key ~row ~step ~ver =
    let b = bucket_of tabs.(j) key in
    if b != no_bucket then begin
      b.head <- push s.ddied b.head ~row ~step ~ver;
      tabs
    end
    else begin
      let tabs =
        if 3 * (t.used.(j) + 1) <= 2 * Array.length tabs.(j) then tabs
        else begin
          let tab = Array.make (2 * Array.length tabs.(j)) no_bucket in
          Array.iter (fun b -> if b != no_bucket then insert tab b) tabs.(j);
          let tabs = Array.copy tabs in
          tabs.(j) <- tab;
          tabs
        end
      in
      insert tabs.(j) { key; head = push s.ddied Nil ~row ~step ~ver };
      t.used.(j) <- t.used.(j) + 1;
      tabs
    end

  let note t s sid pid packed ~row ~step ~ver =
    let note1 tabs j key = note1 t s tabs j key ~row ~step ~ver in
    note1 (note1 (note1 (note1 s.tabs by_s sid) by_p pid) by_o packed)
      by_sp (key_sp sid pid)

  (* Fold the delta and the tombstones into a new base holding the live
     rows in their order. *)
  let compact_run t =
    let s = Atomic.get t.state in
    let b = s.base in
    let subs = Array.make s.live 0 and preds = Array.make s.live 0 in
    let objs = Array.make s.live 0 and next = ref 0 in
    let keep sid pid packed =
      subs.(!next) <- sid;
      preds.(!next) <- pid;
      objs.(!next) <- packed;
      incr next
    in
    for r = 0 to b.n - 1 do
      if base_live s r then keep b.subs.(r) b.preds.(r) b.objs.(r)
    done;
    for r = 0 to s.dlen - 1 do
      if s.ddied.(r) > s.ver then keep s.dsubs.(r) s.dpreds.(r) s.dobjs.(r)
    done;
    Array.fill t.used 0 4 0;
    Atomic.set t.state (initial ~ver:s.ver (build subs preds objs))

  let compact t =
    Si_obs.Counter.incr compact_count;
    if Si_obs.Span.on () then
      Si_obs.Span.timed compact_latency ~layer:"store" ~op:"columnar.compact"
        (fun () -> compact_run t)
    else compact_run t

  (* Publish [s]; compact once the delta's rows pass [min_churn] and a
     quarter of the base, or removed rows, which reads still walk, pass
     64 and half the live ones. *)
  let publish t s =
    Atomic.set t.state s;
    if s.dlen > max min_churn (s.base.n / 4) || s.removed > max 64 (s.live / 2)
    then compact t

  let add t (triple : Triple.t) =
    Si_check.Lock.with_lock t.lock (fun () ->
        let sid = Atom.intern triple.subject in
        let pid = Atom.intern triple.predicate in
        let packed = pack_obj triple.object_ in
        let s = Atomic.get t.state in
        locate s sid pid packed = -1
        &&
        let r = s.dlen and ver = s.ver + 1 in
        let s =
          if r < Array.length s.dsubs then s
          else
            let g col fill = Array.append col (Array.make r fill) in
            let dsubs = g s.dsubs 0 and dpreds = g s.dpreds 0 in
            let dobjs = g s.dobjs 0 and ddied = g s.ddied max_int in
            { s with dsubs; dpreds; dobjs; ddied }
        in
        s.dsubs.(r) <- sid;
        s.dpreds.(r) <- pid;
        s.dobjs.(r) <- packed;
        let tabs = note t s sid pid packed ~row:r ~step:1 ~ver in
        publish t { s with ver; live = s.live + 1; dlen = r + 1; tabs };
        true)

  let remove t =
    with_ids (fun sid pid packed ->
        Si_check.Lock.with_lock t.lock (fun () ->
            let s = Atomic.get t.state in
            let at = locate s sid pid packed and ver = s.ver + 1 in
            at <> -1
            &&
            let died =
              if at < 0 || Array.length s.died > 0 then s.died
              else Array.make s.base.n max_int
            in
            if at < 0 then s.ddied.(-2 - at) <- ver else died.(at) <- ver;
            let tabs = note t s sid pid packed ~row:(-1) ~step:(-1) ~ver in
            let removed = s.removed + 1 in
            publish t { s with ver; live = s.live - 1; removed; tabs; died };
            true))

  let clear t =
    Si_check.Lock.with_lock t.lock (fun () ->
        Array.fill t.used 0 4 0;
        let ver = (Atomic.get t.state).ver + 1 in
        Atomic.set t.state (initial ~ver empty))

  (* Bulk load for snapshot recovery: the store owns the columns and
     builds its base from them. The payload is untrusted: one that repeats
     a row is loaded row by row instead, so the repeat drops. *)
  let of_packed_columns subs preds objs =
    check_columns "Columnar_store" subs preds objs;
    let b = build subs preds objs in
    if not (repeats b) then of_base b
    else
      let t = create () in
      Array.iteri
        (fun r sid -> ignore (add t (canonical sid preds.(r) objs.(r))))
        subs;
      t
end

(* The name the end-to-end benchmark's traced replay opens a pad with. *)
module Sharded_columnar = Columnar_store

let implementations =
  [
    (List_store.name, (module List_store : S));
    (Columnar_store.name, (module Columnar_store : S));
  ]
