(* Tests for the arbitrary-precision naturals and primality layer:
   native-int oracle properties, algebraic identities on large values,
   serialisation roundtrips, and Miller–Rabin on known primes and
   Carmichael numbers. *)

module N = Bignum.Nat

let rng = Crypto.Prng.create ~seed:"test-bignum"

let big_nat bits = N.random rng ~bits

(* Generator of small naturals paired with their int value. *)
let small_pair_gen =
  QCheck.map (fun i -> (i, N.of_int i)) QCheck.(int_bound 1_000_000)

let nat_testable =
  Alcotest.testable
    (fun fmt n -> Format.pp_print_string fmt (Crypto.Hex.encode (N.to_bytes_be n)))
    N.equal

(* ---- int oracle ------------------------------------------------------ *)

let prop_add_oracle =
  QCheck.Test.make ~name:"add matches int" ~count:1000
    QCheck.(pair small_pair_gen small_pair_gen)
    (fun ((a, na), (b, nb)) -> N.to_int (N.add na nb) = Some (a + b))

let prop_sub_oracle =
  QCheck.Test.make ~name:"sub matches int (ordered)" ~count:1000
    QCheck.(pair small_pair_gen small_pair_gen)
    (fun ((a, na), (b, nb)) ->
      let hi, lo, nhi, nlo = if a >= b then (a, b, na, nb) else (b, a, nb, na) in
      N.to_int (N.sub nhi nlo) = Some (hi - lo))

let prop_mul_oracle =
  QCheck.Test.make ~name:"mul matches int" ~count:1000
    QCheck.(pair small_pair_gen small_pair_gen)
    (fun ((a, na), (b, nb)) -> N.to_int (N.mul na nb) = Some (a * b))

let prop_divmod_oracle =
  QCheck.Test.make ~name:"divmod matches int" ~count:1000
    QCheck.(pair small_pair_gen small_pair_gen)
    (fun ((a, na), (b, nb)) ->
      QCheck.assume (b > 0);
      let q, r = N.divmod na nb in
      N.to_int q = Some (a / b) && N.to_int r = Some (a mod b))

let prop_compare_oracle =
  QCheck.Test.make ~name:"compare matches int" ~count:1000
    QCheck.(pair small_pair_gen small_pair_gen)
    (fun ((a, na), (b, nb)) -> compare a b = N.compare na nb)

(* ---- algebraic identities on big values ----------------------------- *)

let test_divmod_identity_big () =
  for _ = 1 to 300 do
    let a = big_nat (1 + Crypto.Prng.int rng 800) in
    let b = N.succ (big_nat (1 + Crypto.Prng.int rng 800)) in
    let q, r = N.divmod a b in
    Alcotest.check nat_testable "a = q*b + r" a (N.add (N.mul q b) r);
    Alcotest.(check bool) "r < b" true (N.compare r b < 0)
  done

let test_mul_commutative_big () =
  for _ = 1 to 100 do
    let a = big_nat 900 and b = big_nat 1100 in
    Alcotest.check nat_testable "a*b = b*a" (N.mul a b) (N.mul b a)
  done

let test_mul_distributive_big () =
  (* (a + b) * c = a*c + b*c — crosses the Karatsuba threshold. *)
  for _ = 1 to 50 do
    let a = big_nat 1500 and b = big_nat 1400 and c = big_nat 1600 in
    Alcotest.check nat_testable "distributivity" (N.mul (N.add a b) c)
      (N.add (N.mul a c) (N.mul b c))
  done

let test_karatsuba_square_identity () =
  (* (a + b)^2 = a^2 + 2ab + b^2 with operand sizes chosen to exercise
     both schoolbook and Karatsuba paths. *)
  List.iter
    (fun bits ->
      let a = big_nat bits and b = big_nat bits in
      let lhs = N.mul (N.add a b) (N.add a b) in
      let rhs =
        N.add (N.mul a a) (N.add (N.mul (N.of_int 2) (N.mul a b)) (N.mul b b))
      in
      Alcotest.check nat_testable (Printf.sprintf "square identity at %d bits" bits) lhs rhs)
    [ 30; 100; 500; 900; 2000; 5000 ]

let test_shift_left_is_mul_pow2 () =
  for _ = 1 to 100 do
    let a = big_nat 300 in
    let s = Crypto.Prng.int rng 100 in
    let pow2 = N.shift_left N.one s in
    Alcotest.check nat_testable "a << s = a * 2^s" (N.shift_left a s) (N.mul a pow2)
  done

let test_shift_right_is_div_pow2 () =
  for _ = 1 to 100 do
    let a = big_nat 300 in
    let s = Crypto.Prng.int rng 100 in
    let pow2 = N.shift_left N.one s in
    Alcotest.check nat_testable "a >> s = a / 2^s" (N.shift_right a s) (fst (N.divmod a pow2))
  done

let test_sub_negative_raises () =
  Alcotest.check_raises "1 - 2 raises" (Invalid_argument "Nat.sub: negative result")
    (fun () -> ignore (N.sub N.one N.two))

let test_division_by_zero () =
  Alcotest.check_raises "divmod by zero" Division_by_zero (fun () ->
      ignore (N.divmod N.one N.zero))

(* ---- modular arithmetic --------------------------------------------- *)

let prop_modpow_oracle =
  QCheck.Test.make ~name:"mod_pow matches naive" ~count:300
    QCheck.(triple (int_bound 50) (int_bound 12) (int_range 2 80))
    (fun (b, e, m) ->
      let naive = ref 1 in
      for _ = 1 to e do
        naive := !naive * b mod m
      done;
      N.to_int (N.mod_pow ~base:(N.of_int b) ~exp:(N.of_int e) ~modulus:(N.of_int m))
      = Some !naive)

let test_modpow_fermat () =
  (* Fermat's little theorem for a 128-bit prime. *)
  let p = Bignum.Prime.generate rng ~bits:128 in
  for _ = 1 to 10 do
    let a = N.succ (N.random_below rng (N.pred p)) in
    Alcotest.check nat_testable "a^(p-1) ≡ 1 (mod p)" N.one
      (N.mod_pow ~base:a ~exp:(N.pred p) ~modulus:p)
  done

let test_mod_inverse () =
  for _ = 1 to 200 do
    let m = N.succ (big_nat 256) in
    let a = N.random_below rng m in
    match N.mod_inverse a ~modulus:m with
    | Some x -> Alcotest.check nat_testable "a * a^-1 ≡ 1" N.one (N.rem (N.mul a x) m)
    | None ->
        let rec gcd a b = if N.is_zero b then a else gcd b (N.rem a b) in
        Alcotest.(check bool) "no inverse implies gcd > 1 (or a ≡ 0)" true
          (N.is_zero (N.rem a m) || not (N.equal (gcd a m) N.one))
  done

let test_bytes_roundtrip () =
  for _ = 1 to 200 do
    let a = big_nat (1 + Crypto.Prng.int rng 500) in
    Alcotest.check nat_testable "of_bytes_be∘to_bytes_be = id" a
      (N.of_bytes_be (N.to_bytes_be a))
  done

let test_bytes_padding () =
  let a = N.of_int 0xabcd in
  Alcotest.(check string) "padded" "\x00\x00\xab\xcd" (N.to_bytes_be ~pad_to:4 a);
  Alcotest.check_raises "too wide"
    (Invalid_argument "Nat.to_bytes_be: value too wide for pad_to") (fun () ->
      ignore (N.to_bytes_be ~pad_to:1 a))

let test_bit_length () =
  Alcotest.(check int) "bit_length 0" 0 (N.bit_length N.zero);
  Alcotest.(check int) "bit_length 1" 1 (N.bit_length N.one);
  Alcotest.(check int) "bit_length 255" 8 (N.bit_length (N.of_int 255));
  Alcotest.(check int) "bit_length 256" 9 (N.bit_length (N.of_int 256));
  Alcotest.(check int) "bit_length 2^100" 101 (N.bit_length (N.shift_left N.one 100))

let test_test_bit () =
  let v = N.of_int 0b1010110 in
  let bits = List.map (N.test_bit v) [ 0; 1; 2; 3; 4; 5; 6; 7 ] in
  Alcotest.(check (list bool)) "bit pattern"
    [ false; true; true; false; true; false; true; false ]
    bits

(* ---- primality -------------------------------------------------------- *)

let test_random_below_bounds () =
  for _ = 1 to 300 do
    let bound = N.succ (big_nat (1 + Crypto.Prng.int rng 300)) in
    let v = N.random_below rng bound in
    Alcotest.(check bool) "v < bound" true (N.compare v bound < 0)
  done;
  Alcotest.check_raises "zero bound" (Invalid_argument "Nat.random_below: zero bound")
    (fun () -> ignore (N.random_below rng N.zero))

let test_random_bit_width () =
  for _ = 1 to 200 do
    let bits = 1 + Crypto.Prng.int rng 400 in
    let v = N.random rng ~bits in
    Alcotest.(check bool) "within width" true (N.bit_length v <= bits)
  done

let test_small_primes () =
  let primes = [ 2; 3; 5; 7; 97; 101; 7919 ] in
  let composites = [ 0; 1; 4; 91; 561; 1105; 1729; 2465; 6601; 8911; 7917 ] in
  List.iter
    (fun p ->
      Alcotest.(check bool)
        (Printf.sprintf "%d is prime" p)
        true
        (Bignum.Prime.is_probably_prime rng (N.of_int p)))
    primes;
  (* The composite list includes the first Carmichael numbers, which
     defeat plain Fermat tests but not Miller–Rabin. *)
  List.iter
    (fun c ->
      Alcotest.(check bool)
        (Printf.sprintf "%d is composite" c)
        false
        (Bignum.Prime.is_probably_prime rng (N.of_int c)))
    composites

let test_generated_prime_properties () =
  List.iter
    (fun bits ->
      let p = Bignum.Prime.generate rng ~bits in
      Alcotest.(check int) (Printf.sprintf "%d-bit width" bits) bits (N.bit_length p);
      Alcotest.(check bool) "odd" false (N.is_even p);
      Alcotest.(check bool) "probably prime" true (Bignum.Prime.is_probably_prime rng p))
    [ 32; 64; 128; 256 ]

let test_product_of_primes_composite () =
  let p = Bignum.Prime.generate rng ~bits:64 in
  let q = Bignum.Prime.generate rng ~bits:64 in
  Alcotest.(check bool) "p*q composite" false
    (Bignum.Prime.is_probably_prime rng (N.mul p q))

let suite =
  let quick name f = Alcotest.test_case name `Quick f in
  [
    QCheck_alcotest.to_alcotest prop_add_oracle;
    QCheck_alcotest.to_alcotest prop_sub_oracle;
    QCheck_alcotest.to_alcotest prop_mul_oracle;
    QCheck_alcotest.to_alcotest prop_divmod_oracle;
    QCheck_alcotest.to_alcotest prop_compare_oracle;
    quick "divmod identity on big values" test_divmod_identity_big;
    quick "mul commutative on big values" test_mul_commutative_big;
    quick "mul distributive (Karatsuba)" test_mul_distributive_big;
    quick "square identity across thresholds" test_karatsuba_square_identity;
    quick "shift_left = mul by 2^s" test_shift_left_is_mul_pow2;
    quick "shift_right = div by 2^s" test_shift_right_is_div_pow2;
    quick "sub below zero raises" test_sub_negative_raises;
    quick "division by zero raises" test_division_by_zero;
    QCheck_alcotest.to_alcotest prop_modpow_oracle;
    quick "mod_pow: Fermat's little theorem" test_modpow_fermat;
    quick "mod_inverse correctness" test_mod_inverse;
    quick "bytes roundtrip" test_bytes_roundtrip;
    quick "bytes padding" test_bytes_padding;
    quick "bit_length" test_bit_length;
    quick "test_bit" test_test_bit;
    quick "random_below bounds" test_random_below_bounds;
    quick "random bit width" test_random_bit_width;
    quick "primality: known values (incl. Carmichael)" test_small_primes;
    quick "prime generation properties" test_generated_prime_properties;
    quick "product of primes is composite" test_product_of_primes_composite;
  ]
