(** The height-2 page map: page number -> heap block descriptor.

    [GC_base]-style lookups do exactly two array indexings, which is the
    property the paper contrasts with Jones & Kelly's splay tree: "we use a
    tree of fixed height 2 describing pages of uniformly sized objects ...
    both the allocator and collector are tuned to make such lookups very
    fast."  The lookup is [Heap.block_at], inside the module whose every
    access and scanned word makes it. *)

let level2_bits = 10

let level2_size = 1 lsl level2_bits

type t = {
  mutable top : Block.t option array option array;
  mutable mapped : int;  (** pages that map to some block *)
}

let create () = { top = Array.make 64 None; mapped = 0 }

let split page =
  let hi = page lsr level2_bits and lo = page land (level2_size - 1) in
  (hi, lo)

let ensure_top t hi =
  if hi >= Array.length t.top then begin
    let fresh = Array.make (Int.max (hi + 1) (2 * Array.length t.top)) None in
    Array.blit t.top 0 fresh 0 (Array.length t.top);
    t.top <- fresh
  end

(** Register [blk] for every page it spans. *)
let set_block t (blk : Block.t) =
  let first = blk.Block.blk_start lsr Mem.page_bits in
  for page = first to first + blk.Block.blk_pages - 1 do
    let hi, lo = split page in
    ensure_top t hi;
    let l2 =
      match t.top.(hi) with
      | Some l2 -> l2
      | None ->
          let l2 = Array.make level2_size None in
          t.top.(hi) <- Some l2;
          l2
    in
    if Option.is_none l2.(lo) then t.mapped <- t.mapped + 1;
    l2.(lo) <- Some blk
  done

let clear_block t (blk : Block.t) =
  let first = blk.Block.blk_start lsr Mem.page_bits in
  for page = first to first + blk.Block.blk_pages - 1 do
    let hi, lo = split page in
    if hi < Array.length t.top then
      match t.top.(hi) with
      | Some l2 ->
          if Option.is_some l2.(lo) then t.mapped <- t.mapped - 1;
          l2.(lo) <- None
      | None -> ()
  done

let mapped_pages t = t.mapped
