(* ChaCha20 block function (RFC 8439) driving a byte stream. State words
   are 32-bit values stored in native ints and masked, as in Sha256. *)

let mask = 0xffffffff

type t = {
  key : string; (* 32 bytes *)
  mutable counter : int; (* block counter *)
  block : Bytes.t; (* 64-byte keystream block *)
  mutable pos : int; (* consumed bytes within [block] *)
}

let rotl x n = ((x lsl n) lor (x lsr (32 - n))) land mask

let quarter_round st a b c d =
  st.(a) <- (st.(a) + st.(b)) land mask;
  st.(d) <- rotl (st.(d) lxor st.(a)) 16;
  st.(c) <- (st.(c) + st.(d)) land mask;
  st.(b) <- rotl (st.(b) lxor st.(c)) 12;
  st.(a) <- (st.(a) + st.(b)) land mask;
  st.(d) <- rotl (st.(d) lxor st.(a)) 8;
  st.(c) <- (st.(c) + st.(d)) land mask;
  st.(b) <- rotl (st.(b) lxor st.(c)) 7

let word_of_le s i =
  Char.code s.[i]
  lor (Char.code s.[i + 1] lsl 8)
  lor (Char.code s.[i + 2] lsl 16)
  lor (Char.code s.[i + 3] lsl 24)

(* "expand 32-byte k" *)
let sigma = [| 0x61707865; 0x3320646e; 0x79622d32; 0x6b206574 |]

let fill_block g =
  let init = Array.make 16 0 in
  Array.blit sigma 0 init 0 4;
  for i = 0 to 7 do
    init.(4 + i) <- word_of_le g.key (4 * i)
  done;
  (* 64-bit counter split across words 12-13; nonce words left zero
     (each generator instance has a distinct key, so nonce reuse across
     instances is impossible). *)
  init.(12) <- g.counter land mask;
  init.(13) <- (g.counter lsr 32) land mask;
  let st = Array.copy init in
  for _round = 1 to 10 do
    quarter_round st 0 4 8 12;
    quarter_round st 1 5 9 13;
    quarter_round st 2 6 10 14;
    quarter_round st 3 7 11 15;
    quarter_round st 0 5 10 15;
    quarter_round st 1 6 11 12;
    quarter_round st 2 7 8 13;
    quarter_round st 3 4 9 14
  done;
  for i = 0 to 15 do
    let v = (st.(i) + init.(i)) land mask in
    Bytes.set g.block (4 * i) (Char.chr (v land 0xff));
    Bytes.set g.block ((4 * i) + 1) (Char.chr ((v lsr 8) land 0xff));
    Bytes.set g.block ((4 * i) + 2) (Char.chr ((v lsr 16) land 0xff));
    Bytes.set g.block ((4 * i) + 3) (Char.chr ((v lsr 24) land 0xff))
  done;
  g.counter <- g.counter + 1;
  g.pos <- 0

let create ~seed =
  let g =
    { key = Sha256.digest seed; counter = 0; block = Bytes.create 64; pos = 64 }
  in
  g

let split g ~label =
  create ~seed:(Hmac.mac ~key:g.key ("prng-split:" ^ label))

let byte g =
  if g.pos >= 64 then fill_block g;
  let b = Char.code (Bytes.get g.block g.pos) in
  g.pos <- g.pos + 1;
  b

let bytes g n =
  let out = Bytes.create n in
  for i = 0 to n - 1 do
    Bytes.set out i (Char.chr (byte g))
  done;
  Bytes.unsafe_to_string out

(* 62 uniform bits (keeps the value a non-negative OCaml int). *)
let bits62 g =
  let acc = ref 0 in
  for _ = 1 to 8 do
    acc := (!acc lsl 8) lor byte g
  done;
  !acc land max_int

let int g bound =
  if bound <= 0 then invalid_arg "Prng.int: bound must be positive";
  (* Rejection sampling on the top of the 62-bit range for exact
     uniformity. *)
  let limit = max_int - (max_int mod bound) in
  let rec draw () =
    let v = bits62 g in
    if v < limit then v mod bound else draw ()
  in
  draw ()

let float g = Stdlib.float_of_int (bits62 g lsr 9) *. 0x1p-53

let bernoulli g ~p =
  if p <= 0. then false else if p >= 1. then true else float g < p

let shuffle g arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int g (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done

let exponential g ~mean =
  if mean <= 0. then invalid_arg "Prng.exponential: mean must be positive";
  let u = 1.0 -. float g in
  -.mean *. log u
