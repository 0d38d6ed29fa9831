(* Patch engine tests: sorted insertion/deletion lists over original text. *)

open Gcsafe

let apply edits src =
  let t = Patch.create () in
  List.iter (fun (offset, delete, insert) -> Patch.add t ~offset ~delete ~insert) edits;
  Patch.apply t src

let check name edits src expected =
  Alcotest.(check string) name expected (apply edits src)

let test_empty () = check "no edits" [] "hello" "hello"

let test_insert () =
  check "insert front" [ (0, 0, ">") ] "abc" ">abc";
  check "insert middle" [ (1, 0, "XY") ] "abc" "aXYbc";
  check "insert end" [ (3, 0, "!") ] "abc" "abc!"

let test_delete () =
  check "delete front" [ (0, 1, "") ] "abc" "bc";
  check "delete middle" [ (1, 1, "") ] "abc" "ac";
  check "delete all" [ (0, 3, "") ] "abc" ""

let test_replace () =
  check "replace" [ (1, 1, "BB") ] "abc" "aBBc"

let test_order_independence () =
  (* offsets refer to the original string regardless of insertion order *)
  let edits = [ (4, 0, "D"); (0, 0, "A"); (2, 0, "B") ] in
  check "edits sort by offset" edits "wxyz" "AwxByzD"

let test_same_offset_stable () =
  (* same-offset insertions apply in registration order *)
  check "registration order" [ (1, 0, "1"); (1, 0, "2"); (1, 0, "3") ] "ab"
    "a123b"

let test_overlap_rejected () =
  let t = Patch.create () in
  Patch.delete t ~offset:0 ~len:3;
  Patch.delete t ~offset:2 ~len:2;
  match Patch.apply t "abcdef" with
  | exception Patch.Overlap _ -> ()
  | _ -> Alcotest.fail "overlapping deletions must be rejected"

let test_invalid_args () =
  let t = Patch.create () in
  match Patch.add t ~offset:(-1) ~delete:0 ~insert:"" with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "negative offset must be rejected"

(* reference implementation: apply one edit at a time to a string zipper,
   processing edits sorted by (offset, seq) from the end backwards *)
let reference edits src =
  let sorted =
    List.sort
      (fun (o1, _, _, s1) (o2, _, _, s2) ->
        match compare o1 o2 with 0 -> compare s1 s2 | c -> c)
      (List.mapi (fun i (o, d, ins) -> (o, d, ins, i)) edits)
  in
  List.fold_left
    (fun (acc, shift) (o, d, ins, _) ->
      let o' = o + shift in
      let before = String.sub acc 0 o' in
      let after = String.sub acc (o' + d) (String.length acc - o' - d) in
      (before ^ ins ^ after, shift + String.length ins - d))
    (src, 0) sorted
  |> fst

let gen_case =
  QCheck.Gen.(
    let* len = int_range 0 40 in
    let src = String.init len (fun i -> Char.chr (97 + (i mod 26))) in
    (* non-overlapping deletions: pick sorted cut points *)
    let* nedits = int_range 0 6 in
    let rec build pos acc k =
      if k = 0 || pos > len then return (List.rev acc)
      else
        let* off = int_range pos len in
        let* del = int_range 0 (min 3 (len - off)) in
        let* ins =
          oneof [ return ""; return "<"; return "INS"; return "((" ]
        in
        build (off + max del 1) ((off, del, ins) :: acc) (k - 1)
    in
    let* edits = build 0 [] nedits in
    return (src, edits))

let prop_matches_reference =
  QCheck.Test.make ~count:500 ~name:"patch matches reference implementation"
    (QCheck.make gen_case) (fun (src, edits) ->
      apply edits src = reference edits src)

let suite =
  [
    Alcotest.test_case "empty" `Quick test_empty;
    Alcotest.test_case "insert" `Quick test_insert;
    Alcotest.test_case "delete" `Quick test_delete;
    Alcotest.test_case "replace" `Quick test_replace;
    Alcotest.test_case "order independence" `Quick test_order_independence;
    Alcotest.test_case "same offset stability" `Quick test_same_offset_stable;
    Alcotest.test_case "overlap rejected" `Quick test_overlap_rejected;
    Alcotest.test_case "invalid arguments" `Quick test_invalid_args;
    QCheck_alcotest.to_alcotest prop_matches_reference;
  ]
