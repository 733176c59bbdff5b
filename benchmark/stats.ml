(* Quantiles of measured samples. *)

(* The q-quantile of a sorted array by linear interpolation between
   closest ranks. *)
let quantile_sorted a q =
  let n = Array.length a in
  if n = 0 then nan
  else
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float pos in
    if i >= n - 1 then a.(n - 1)
    else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let quantile xs q = quantile_sorted (sorted xs) q
let median xs = quantile xs 0.5

(* The mean of the [k] best values: the highest when higher is
   better, the lowest otherwise. *)
let best ~k ~higher xs =
  let a = sorted xs in
  let n = Array.length a in
  let k = min k n in
  let pick i = if higher then a.(n - 1 - i) else a.(i) in
  let sum = ref 0. in
  for i = 0 to k - 1 do
    sum := !sum +. pick i
  done;
  !sum /. float_of_int k

(* Median and quartiles of a metric's per-rep values. *)
type summary = { med : float; q1 : float; q3 : float; n : int }

let summarize xs =
  let a = sorted xs in
  {
    med = quantile_sorted a 0.5;
    q1 = quantile_sorted a 0.25;
    q3 = quantile_sorted a 0.75;
    n = Array.length a;
  }

(* Distance between the quartiles as a share of the median. *)
let spread s = if s.med = 0. then 0. else (s.q3 -. s.q1) /. Float.abs s.med

(* A growable float buffer for latency samples. *)
module Buf = struct
  type t = { mutable a : float array; mutable n : int }

  let create () = { a = Array.make 1024 0.; n = 0 }

  let add b x =
    if b.n = Array.length b.a then begin
      let a = Array.make (2 * b.n) 0. in
      Array.blit b.a 0 a 0 b.n;
      b.a <- a
    end;
    b.a.(b.n) <- x;
    b.n <- b.n + 1

  let length b = b.n

  let sorted b =
    let a = Array.sub b.a 0 b.n in
    Array.sort Float.compare a;
    a

  let append dst src = for i = 0 to src.n - 1 do add dst src.a.(i) done
end
