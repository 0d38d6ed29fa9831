(* Memory arena unit tests: endianness, sign extension, bounds, strings. *)

open Gcheap

let fresh_with_page () =
  let m = Mem.create () in
  let a = Mem.grow_pages m 1 in
  (m, a)

let test_widths_roundtrip () =
  let m, a = fresh_with_page () in
  List.iter
    (fun (w, v) ->
      Mem.store m ~width:w a v;
      Alcotest.(check int) (Printf.sprintf "width %d" w) v (Mem.load m ~width:w a))
    [ (1, 42); (1, -1); (2, -12345); (4, 1 lsl 30); (8, 1 lsl 55); (8, -(1 lsl 55)) ]

let test_sign_extension () =
  let m, a = fresh_with_page () in
  Mem.store m ~width:1 a 0xFF;
  Alcotest.(check int) "byte 0xFF loads as -1" (-1) (Mem.load m ~width:1 a);
  Mem.store m ~width:2 a 0x8000;
  Alcotest.(check int) "short 0x8000 loads as -32768" (-32768)
    (Mem.load m ~width:2 a);
  Mem.store m ~width:4 a 0x80000000;
  Alcotest.(check int) "int 0x80000000 negative" (-2147483648)
    (Mem.load m ~width:4 a)

let test_little_endian () =
  let m, a = fresh_with_page () in
  Mem.store m ~width:4 a 0x11223344;
  Alcotest.(check int) "low byte first" 0x44 (Mem.load m ~width:1 a);
  Alcotest.(check int) "high byte last" 0x11 (Mem.load m ~width:1 (a + 3))

let test_truncation () =
  let m, a = fresh_with_page () in
  Mem.store m ~width:1 a 300;
  Alcotest.(check int) "300 truncates to 44" 44 (Mem.load m ~width:1 a)

let test_bounds () =
  let m, a = fresh_with_page () in
  let expect_fault f =
    match f () with
    | exception Mem.Fault _ -> ()
    | _ -> Alcotest.fail "expected Mem.Fault"
  in
  expect_fault (fun () -> Mem.load m ~width:8 0);
  expect_fault (fun () -> Mem.load m ~width:8 (Mem.limit m - 4));
  expect_fault (fun () -> Mem.store m ~width:1 (-1) 0);
  (* the last valid byte is fine *)
  Mem.store m ~width:1 (Mem.limit m - 1) 7;
  Alcotest.(check int) "last byte" 7 (Mem.load m ~width:1 (Mem.limit m - 1));
  ignore a

(* An address near [max_int] is out of bounds, not an overflowed sum:
   the access faults before any [Bytes] read could raise. *)
let test_bounds_near_max_int () =
  let m, _ = fresh_with_page () in
  let faults f =
    match f () with
    | exception Mem.Fault _ -> true
    | exception Invalid_argument _ -> false
    | _ -> false
  in
  List.iter
    (fun addr ->
      Alcotest.(check bool)
        (Printf.sprintf "load_word %#x faults" addr)
        true
        (faults (fun () -> Mem.load_word m addr));
      Alcotest.(check bool)
        (Printf.sprintf "store %#x faults" addr)
        true
        (faults (fun () -> Mem.store m ~width:4 addr 1)))
    [ max_int - 8; max_int - 7; max_int - 3; max_int ];
  Alcotest.(check bool) "fill of max_int bytes faults" true
    (faults (fun () -> Mem.fill m Mem.page_size max_int 'x'))

let test_growth () =
  let m = Mem.create () in
  let first = Mem.grow_pages m 1 in
  let big = Mem.grow_pages m 1000 in
  Alcotest.(check bool) "disjoint" true (big >= first + Mem.page_size);
  Mem.store_word m (big + (999 * Mem.page_size)) 99;
  Alcotest.(check int) "far page usable" 99
    (Mem.load_word m (big + (999 * Mem.page_size)))

let test_fill_blit () =
  let m, a = fresh_with_page () in
  Mem.fill m a 16 'x';
  Alcotest.(check int) "filled" (Char.code 'x') (Mem.load m ~width:1 (a + 15));
  Mem.blit m ~src:a ~dst:(a + 32) 16;
  Alcotest.(check int) "blitted" (Char.code 'x')
    (Mem.load m ~width:1 (a + 47))

let test_cstrings () =
  let m, a = fresh_with_page () in
  Mem.store_cstring m a "hello";
  Alcotest.(check string) "round trip" "hello" (Mem.load_cstring m a);
  Alcotest.(check int) "terminator" 0 (Mem.load m ~width:1 (a + 5));
  Mem.store_cstring m a "";
  Alcotest.(check string) "empty" "" (Mem.load_cstring m a)

let prop_word_roundtrip =
  QCheck.Test.make ~count:200 ~name:"word store/load round trip"
    QCheck.(int_range (-(1 lsl 60)) (1 lsl 60))
    (fun v ->
      let m, a = fresh_with_page () in
      Mem.store_word m a v;
      Mem.load_word m a = v)

(* A released arena faults on every access, and the next arena created
   on the domain (which takes the released buffer) reads zero wherever
   the released one was written. *)
let prop_release_then_create =
  let op =
    QCheck.(
      oneof
        [
          map (fun n -> `Grow (1 + (n mod 80))) small_nat;
          map (fun (k, v) -> `Store (k, v)) (pair (int_bound 1_000_000) int);
        ])
  in
  QCheck.Test.make ~count:50 ~name:"release faults, the next create reads zero"
    (QCheck.list_of_size (QCheck.Gen.int_range 1 30) op)
    (fun ops ->
      let m = Mem.create () in
      let stored = ref [] in
      List.iter
        (function
          | `Grow n -> ignore (Mem.grow_pages m n)
          | `Store (k, v) ->
              let span = Mem.limit m - Mem.page_size in
              if span >= 8 then begin
                let a = Mem.page_size + (k mod (span - 7)) in
                Mem.store m ~width:[| 1; 2; 4; 8 |].(k land 3) a v;
                stored := a :: !stored
              end)
        ops;
      let pages = Mem.limit m / Mem.page_size in
      Mem.release m;
      let faults f =
        match f () with exception Mem.Fault _ -> true | _ -> false
      in
      List.for_all
        (fun a ->
          faults (fun () -> Mem.load m ~width:1 a)
          && faults (fun () -> Mem.store m ~width:1 a 1))
        (Mem.page_size :: !stored)
      && faults (fun () -> Mem.grow_pages m 1)
      &&
      let m2 = Mem.create () in
      ignore (Mem.grow_pages m2 pages);
      let zero = ref true and a = ref Mem.page_size in
      while !zero && !a + 8 <= Mem.limit m2 do
        zero := Mem.load_word m2 !a = 0;
        a := !a + 8
      done;
      Mem.release m2;
      !zero)

let test_release_twice () =
  let m, a = fresh_with_page () in
  Mem.store_word m a 7;
  Mem.release m;
  let m1, a1 = fresh_with_page () in
  (* [m1] holds the buffer now: releasing [m] again must not hand it out
     a second time *)
  Mem.release m;
  let m2, a2 = fresh_with_page () in
  Mem.store_word m1 a1 1;
  Mem.store_word m2 a2 2;
  Alcotest.(check (pair int int)) "distinct buffers" (1, 2)
    (Mem.load_word m1 a1, Mem.load_word m2 a2)

(* A released arena of the size a VM run reaches is handed to the next
   [create] on the domain, which then allocates no buffer; one grown
   past that size is left to the OCaml GC, so the next [create]
   allocates a fresh one. *)
let test_large_arena_not_kept () =
  let create_allocating () =
    let before = Gc.allocated_bytes () in
    let m = Mem.create () in
    (m, Gc.allocated_bytes () -. before)
  in
  let fresh_buffer = float_of_int (64 * Mem.page_size) in
  let m, _ = create_allocating () in
  ignore (Mem.grow_pages m 100);
  Mem.release m;
  let m, allocated = create_allocating () in
  Alcotest.(check bool) "run-sized arena reused" true (allocated < fresh_buffer);
  let far = Mem.grow_pages m 300 + (299 * Mem.page_size) in
  Mem.store_word m far 7;
  Mem.release m;
  let m, allocated = create_allocating () in
  Alcotest.(check bool) "large arena not handed out" true
    (allocated >= fresh_buffer);
  ignore (Mem.grow_pages m 300);
  Alcotest.(check int) "fresh arena reads zero" 0 (Mem.load_word m far);
  Mem.release m

let suite =
  [
    Alcotest.test_case "width round trips" `Quick test_widths_roundtrip;
    Alcotest.test_case "sign extension" `Quick test_sign_extension;
    Alcotest.test_case "little endian" `Quick test_little_endian;
    Alcotest.test_case "narrow truncation" `Quick test_truncation;
    Alcotest.test_case "bounds checking" `Quick test_bounds;
    Alcotest.test_case "bounds near max_int fault" `Quick
      test_bounds_near_max_int;
    Alcotest.test_case "growth" `Quick test_growth;
    Alcotest.test_case "fill and blit" `Quick test_fill_blit;
    Alcotest.test_case "C strings" `Quick test_cstrings;
    QCheck_alcotest.to_alcotest prop_word_roundtrip;
    Alcotest.test_case "release twice" `Quick test_release_twice;
    Alcotest.test_case "large released arena is not kept" `Quick
      test_large_arena_not_kept;
    QCheck_alcotest.to_alcotest prop_release_then_create;
  ]
