(* Standard reflected CRC-32: polynomial 0xEDB88320, init/xorout
   0xFFFFFFFF, computed by slicing-by-8 (Kounavis and Berry, 2005).

   [tables] holds eight 256-entry tables back to back, table k at
   offset [k * 256]. Table 0 is the classic bytewise table: the
   register after shifting one byte [n] through it. Table k is the same
   followed by k zero bytes, so one step reads 8 input bytes, looks
   each up in the table for its distance from the end, and XORs the
   eight entries into the new register. A tail shorter than 8 bytes
   goes bytewise through table 0. Built once, lazily. *)

let tables =
  lazy
    (let t = Array.make (8 * 256) 0 in
     for n = 0 to 255 do
       let c = ref n in
       for _ = 1 to 8 do
         c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
       done;
       t.(n) <- !c
     done;
     for k = 1 to 7 do
       for n = 0 to 255 do
         let prev = t.(((k - 1) * 256) + n) in
         t.((k * 256) + n) <- (prev lsr 8) lxor t.(prev land 0xff)
       done
     done;
     t)

let[@inline] byte s i = Char.code (String.unsafe_get s i)

let digest ?(crc = 0) ?(pos = 0) ?len s =
  let len = match len with Some l -> l | None -> String.length s - pos in
  if pos < 0 || len < 0 || pos + len > String.length s then
    invalid_arg "Crc32.digest";
  let t = Lazy.force tables in
  let c = ref (crc lxor 0xFFFFFFFF land 0xFFFFFFFF) in
  let i = ref pos in
  let stop = pos + len in
  while !i <= stop - 8 do
    let p = !i in
    let x =
      !c
      lxor (byte s p lor (byte s (p + 1) lsl 8) lor (byte s (p + 2) lsl 16)
           lor (byte s (p + 3) lsl 24))
    in
    c :=
      Array.unsafe_get t (1792 + (x land 0xff))
      lxor Array.unsafe_get t (1536 + ((x lsr 8) land 0xff))
      lxor Array.unsafe_get t (1280 + ((x lsr 16) land 0xff))
      lxor Array.unsafe_get t (1024 + (x lsr 24))
      lxor Array.unsafe_get t (768 + byte s (p + 4))
      lxor Array.unsafe_get t (512 + byte s (p + 5))
      lxor Array.unsafe_get t (256 + byte s (p + 6))
      lxor Array.unsafe_get t (byte s (p + 7));
    i := p + 8
  done;
  for j = !i to stop - 1 do
    c := Array.unsafe_get t ((!c lxor byte s j) land 0xff) lxor (!c lsr 8)
  done;
  !c lxor 0xFFFFFFFF land 0xFFFFFFFF
