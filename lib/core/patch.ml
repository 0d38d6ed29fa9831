(** Sorted insertion/deletion lists applied to original source text.

    This is the output machinery of the paper's implementation: "Our
    preprocessor maintains a copy of the input file (including the source
    line information generated by the C preprocessor).  It parses and
    partially type-checks the source.  In the process it generates a list
    of insertions and deletions, sorted by character position in the
    original source string.  After parsing is complete, the insertions and
    deletions are applied to the original source."

    Edits are expressed against the {e original} string, so their offsets
    never shift as earlier edits are applied.  Overlapping deletions are
    rejected; insertions at the same offset are applied in registration
    order. *)

type edit = {
  ed_offset : int;  (** character position in the original source *)
  ed_delete : int;  (** number of original characters to remove *)
  ed_insert : string;  (** text to insert at the position *)
  ed_seq : int;  (** registration order, for stable same-offset handling *)
}

type t = { mutable edits : edit list; mutable next_seq : int }

exception Overlap of int * int
(** two deletions overlap at these offsets *)

let create () = { edits = []; next_seq = 0 }

let add t ~offset ~delete ~insert =
  if offset < 0 || delete < 0 then invalid_arg "Patch.add";
  t.edits <-
    { ed_offset = offset; ed_delete = delete; ed_insert = insert; ed_seq = t.next_seq }
    :: t.edits;
  t.next_seq <- t.next_seq + 1

let insert t ~offset text = add t ~offset ~delete:0 ~insert:text

let delete t ~offset ~len = add t ~offset ~delete:len ~insert:""

let replace t ~offset ~len text = add t ~offset ~delete:len ~insert:text

let sorted_edits t =
  List.sort
    (fun a b ->
      match Int.compare a.ed_offset b.ed_offset with
      | 0 -> Int.compare a.ed_seq b.ed_seq
      | c -> c)
    t.edits

(** Apply all recorded edits to [src]. *)
let apply t (src : string) : string =
  let edits = sorted_edits t in
  (* check deletions do not overlap *)
  let rec check_overlap last = function
    | [] -> ()
    | e :: rest ->
        if e.ed_delete > 0 then begin
          if e.ed_offset < last then raise (Overlap (last, e.ed_offset));
          check_overlap (e.ed_offset + e.ed_delete) rest
        end
        else check_overlap last rest
  in
  check_overlap 0 edits;
  let buf = Buffer.create (String.length src + 256) in
  let pos = ref 0 in
  List.iter
    (fun e ->
      if e.ed_offset > !pos then begin
        Buffer.add_substring buf src !pos (e.ed_offset - !pos);
        pos := e.ed_offset
      end;
      Buffer.add_string buf e.ed_insert;
      if e.ed_delete > 0 then pos := e.ed_offset + e.ed_delete)
    edits;
  if !pos < String.length src then
    Buffer.add_substring buf src !pos (String.length src - !pos);
  Buffer.contents buf
