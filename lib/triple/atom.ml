(* Process-wide string interning. One snapshot record — the id->string
   array, its live length, and an open-addressed id probe table — is
   published through a single [Atomic.t], so readers never take a lock:
   they load the snapshot once and work on immutable-for-them data.
   Appends serialize on a mutex and publish a fresh snapshot record.

   Readers may race an in-place append (the writer fills [strings.(len)]
   and a probe slot before publishing [len + 1]); both races are benign:
   slots at index >= the reader's [len] are ignored by the range check,
   so a concurrent intern is simply not yet visible — the same answer a
   fully serialized execution interleaving the read first would give. *)

let intern_count = Si_obs.Registry.counter "atom.intern"
let intern_latency = Si_obs.Registry.histogram "atom.intern"

type snap = {
  strings : string array;  (* ids 0 .. len-1 are valid *)
  len : int;
  probe : int array;  (* open addressing: 0 = empty, else id + 1 *)
  mask : int;  (* probe capacity - 1, capacity a power of two *)
}

let empty =
  { strings = [||]; len = 0; probe = Array.make 16 0; mask = 15 }

let state = Atomic.make empty
let lock = Si_check.Lock.create ~class_:"atom.table"

let size () = (Atomic.get state).len

let to_string id =
  let s = Atomic.get state in
  if id < 0 || id >= s.len then
    invalid_arg (Printf.sprintf "Atom.to_string: unknown atom id %d" id)
  else s.strings.(id)

(* The id of [str] among the first [len] ids of [s], scanning the probe
   table from slot [i] for at most [guard] more slots; -1 when absent.
   Entries are never deleted, so the scan can stop at the first empty
   slot. Top level and closure-free, so a probe allocates nothing. *)
let rec probe_from s len str i guard =
  if guard < 0 then -1
  else
    let v = s.probe.(i land s.mask) in
    if v = 0 then -1
    else
      let id = v - 1 in
      if id < len && String.equal s.strings.(id) str then id
      else probe_from s len str (i + 1) (guard - 1)

(* Where [str], whose hash is [h], sits among the first [len] ids. *)
let probe_id s len str h = probe_from s len str h (s.mask + 1)

let lookup snap str =
  match probe_id snap snap.len str (Hashtbl.hash str) with
  | -1 -> None
  | id -> Some id

let find str = lookup (Atomic.get state) str
let strings () = (Atomic.get state).strings

(* Canonical instance when interned: selects that compare against store
   strings then hit [String.equal]'s physical-equality fast path. *)
let canon str =
  match find str with None -> str | Some id -> (Atomic.get state).strings.(id)

let insert_slot probe mask id h =
  let rec scan i =
    let j = i land mask in
    if probe.(j) = 0 then probe.(j) <- id + 1 else scan (i + 1)
  in
  scan h

(* Called under [lock]. A snapshot with room for [n] atoms: [s] itself
   when it has it, else one grown by doubling until it does. The old
   snapshot's arrays are never touched, so readers holding it stay
   consistent. *)
let with_room s n =
  if n <= Array.length s.strings && 2 * n <= s.mask + 1 then s
  else begin
    let rec up c least = if c >= least then c else up (2 * c) least in
    let strings = Array.make (up (max 16 (2 * Array.length s.strings)) n) "" in
    Array.blit s.strings 0 strings 0 s.len;
    let pcap = up (2 * (s.mask + 1)) (2 * n) in
    let probe = Array.make pcap 0 in
    let mask = pcap - 1 in
    for id = 0 to s.len - 1 do
      insert_slot probe mask id (Hashtbl.hash strings.(id))
    done;
    { s with strings; probe; mask }
  end

(* [ids] holds -1 at the [missing] entries of [strs] the lock-free pass
   did not find. One lock, one growth sized for all of them, and one
   publication; a string repeated in [strs] or interned meanwhile by
   another domain is found again under the lock like any other. *)
let append_all strs hashes ids missing =
  Si_check.Lock.with_lock lock (fun () ->
      let s0 = Atomic.get state in
      let s = with_room s0 (s0.len + missing) in
      let len = ref s0.len in
      Array.iteri
        (fun i id ->
          if id < 0 then
            let str = strs.(i) and h = hashes.(i) in
            match probe_id s !len str h with
            | -1 ->
                s.strings.(!len) <- str;
                insert_slot s.probe s.mask !len h;
                ids.(i) <- !len;
                incr len
            | id -> ids.(i) <- id)
        ids;
      Si_obs.Counter.add intern_count (!len - s0.len);
      Atomic.set state { s with len = !len })

let intern_all strs =
  let snap = Atomic.get state in
  let hashes = Array.map Hashtbl.hash strs in
  let missing = ref 0 in
  let ids =
    Array.mapi
      (fun i str ->
        let id = probe_id snap snap.len str hashes.(i) in
        if id < 0 then incr missing;
        id)
      strs
  in
  (if !missing > 0 then
     let run () = append_all strs hashes ids !missing in
     if Si_obs.Span.on () then
       Si_obs.Span.timed intern_latency ~layer:"atom" ~op:"intern" run
     else run ());
  ids

let intern str =
  match find str with Some id -> id | None -> (intern_all [| str |]).(0)
