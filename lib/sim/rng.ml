(* splitmix64 over an unboxed Int64 state.

   The state is the generator's only field: 8 bytes read and written with
   [Bytes.get_int64_le]/[set_int64_le]. Without flambda an [Int64] value
   is boxed only where it escapes -- a record field, a function argument
   or result -- while let-bound temporaries inside one function stay in
   registers. Keeping the state in a byte buffer rather than an [int64]
   field means a step loads, mixes and stores it with no box at all, so
   [int], [bool], [chance] and [choose_index_cum] allocate nothing and
   an [int] draw costs ~12 ns (x86-64, OCaml 5.1 without flambda).
   [int64], [save] and [float] return a boxed value, as any function
   called from another module must.

   Stream compatibility with the textbook Int64 reference is bit-exact
   and guarded by a test (test_sim: "limb arithmetic matches Int64
   reference", named for the two-limb form this replaced). *)

type t = Bytes.t

(* golden gamma *)
let gamma = 0x9E3779B97F4A7C15L

let create seed =
  let t = Bytes.create 8 in
  Bytes.set_int64_le t 0 seed;
  t

let copy = Bytes.copy

(* Rewind an existing generator to a new seed: [reseed t s] makes [t]
   produce exactly the stream of [create s] without allocating. *)
let reseed t seed = Bytes.set_int64_le t 0 seed

(* Capture the current stream position as a seed value: [reseed t (save t)]
   is the identity, and [create (save t)] clones the remaining stream.
   Together with [reseed] this is the snapshot/restore pair. *)
let save t = Bytes.get_int64_le t 0

(* One splitmix64 step: advance the state by the golden gamma, then mix
     z ^= z >>> 30; z *= 0xBF58476D1CE4E5B9;
     z ^= z >>> 27; z *= 0x94D049BB133111EB;
     z ^= z >>> 31
   Inlined into each drawing function, so [z] never leaves a register. *)
let[@inline] next t =
  let z = Int64.add (Bytes.get_int64_le t 0) gamma in
  Bytes.set_int64_le t 0 z;
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  Int64.(logxor z (shift_right_logical z 31))

let int64 t = next t

let split t = create (next t)

(* The next output's top 53 bits (the >>> 11 of the reference), exact in
   a float. *)
let[@inline] bits53 t = Int64.to_int (Int64.shift_right_logical (next t) 11)

(* Scaling by 2^-53 is exact, so this multiply gives the same bits as
   dividing by 2^53, at a fraction of the latency. *)
let[@inline] float t x = x *. (float_of_int (bits53 t) *. 0x1p-53)

let int t n =
  if n <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* Modulo bias is negligible for the bounds used here (<= 2^30). The
     62-bit truncation keeps the result a non-negative native int. *)
  Int64.to_int (Int64.logand (next t) 0x3FFFFFFFFFFFFFFFL) mod n

(* [float t 1.0 < p], compared here so no float crosses a call. *)
let chance t p = float t 1.0 < p

let bool t = Int64.to_int (next t) land 1 = 1

let bit64 t = int t 64

let choose t arr =
  if Array.length arr = 0 then invalid_arg "Rng.choose: empty array";
  arr.(int t (Array.length arr))

let choose_weighted t weights =
  let total = List.fold_left (fun acc (w, _) -> acc +. w) 0.0 weights in
  if total <= 0.0 then invalid_arg "Rng.choose_weighted: no positive weight";
  let target = float t total in
  let rec go acc = function
    | [] -> invalid_arg "Rng.choose_weighted: empty list"
    | [ (_, x) ] -> x
    | (w, x) :: rest ->
      let acc = acc +. w in
      if target < acc then x else go acc rest
  in
  go 0.0 weights

(* Hot-path form of [choose_weighted]: the caller precomputes the
   cumulative partial sums (cum.(i) = w0 +. ... +. wi, in list order)
   once and samples indices with no per-draw traversal of a boxed-float
   list. Same single [float] draw against the same total and the same
   strict [target < cum.(i)] boundary (with last-element fallback), so
   the selected index -- and the RNG stream -- match [choose_weighted]
   over the originating list exactly. *)
let choose_index_cum t cum =
  let n = Array.length cum in
  if n = 0 then invalid_arg "Rng.choose_index_cum: empty array";
  let total = cum.(n - 1) in
  if total <= 0.0 then invalid_arg "Rng.choose_index_cum: no positive weight";
  let target = float t total in
  let i = ref 0 in
  while !i < n - 1 && target >= cum.(!i) do
    incr i
  done;
  !i

(* Cumulative sums of a weight list, for [choose_index_cum]. Summed in
   list order so the partial sums match [choose_weighted]'s bit for bit. *)
let cumulative weights =
  let n = List.length weights in
  if n = 0 then invalid_arg "Rng.cumulative: empty list";
  let cum = Array.make n 0.0 in
  let acc = ref 0.0 in
  List.iteri
    (fun i (w, _) ->
      acc := !acc +. w;
      cum.(i) <- !acc)
    weights;
  cum

let shuffle t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done
