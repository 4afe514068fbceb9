package repro.sort

import repro.core.{CodedIterator, CodedRow, ERow, Ovc, OvcStats}

/** A chunk of rows sorted on packed normalized keys (paper §3: production
  * OVCs are offsets into normalized keys, found from the XOR of neighbours
  * and its leading zeros; the key-prefix sort of AlphaSort, Nyberg et al.,
  * SIGMOD 1994, and Graefe, ACM CSUR 2006).
  *
  * Each row becomes one `Long`: every key column as its offset from the
  * chunk's minimum of that column, in the bit width of the column's range,
  * the leading column highest; below them, ⌈log2 n⌉ bits of row index, so
  * that equal keys keep their input order, as a loser tree's lower-index
  * tie-break keeps it. `java.util.Arrays.sort` sorts the packed values. A
  * row's code offset is the column holding the highest set bit, above the
  * index bits, of the XOR with its sorted predecessor; an XOR of 0 there is
  * the duplicate code 0. So rows, codes and order equal those of
  * [[LoserTree.ofRows]] over the same rows.
  *
  * The chunk is read as a [[CodedIterator]]: a move decodes only the
  * columns from the code's offset on, from the packed value into one reused
  * key array, and [[row]] hands out the input row's own key and payload
  * arrays, found by the row index. With `dedup` a move skips rows with the
  * duplicate code.
  */
final class PackedChunk private (rows: Array[ERow], packed: Array[Long], arity: Int,
                                 mins: Array[Long], shifts: Array[Int], masks: Array[Long],
                                 columnOfBit: Array[Int], indexBits: Int, dedup: Boolean)
    extends CodedIterator {
  // Column j of a packed value p is ((p >>> shifts(j)) & masks(j)) + mins(j);
  // bit b above the index bits belongs to column columnOfBit(b).
  private[this] val n = packed.length
  private[this] val indexMask = (1L << indexBits) - 1
  private[this] val current = new Array[Long](arity)
  // Sorted position of the current row, its row index and its code.
  private[this] var pos = -1
  private[this] var index = 0
  private[this] var rowCode = 0L

  /** The offset of sorted row `i`'s code relative to row `i - 1`. */
  private def offset(i: Int): Int = {
    val x = (packed(i) ^ packed(i - 1)) >>> indexBits
    if (x == 0L) arity else columnOfBit(63 - java.lang.Long.numberOfLeadingZeros(x))
  }

  def move(): Boolean = {
    var i = pos + 1
    var off = 0
    while (i < n && { off = if (i == 0) 0 else offset(i); dedup && off == arity }) i += 1
    pos = i
    i < n && {
      val p = packed(i)
      var j = off
      while (j < arity) { current(j) = ((p >>> shifts(j)) & masks(j)) + mins(j); j += 1 }
      index = (p & indexMask).toInt
      rowCode = Ovc.codeAt(current, off)
      true
    }
  }

  def key: Array[Long] = current
  def code: Long = rowCode
  def payload: Array[Long] = rows(index).payload

  def row(code: Long): CodedRow = {
    val r = rows(index)
    CodedRow(r.key, code, r.payload)
  }
}

object PackedChunk {

  /** Sorts `rows(0 until n)` on their first `arity` key columns as a packed
    * chunk, or returns None, having counted nothing, if the packed key
    * needs more than 63 bits. Throws `IllegalArgumentException` naming the
    * first key column outside [0, 2^48) of the first row that has one, as
    * [[LoserTree.ofRows]] does. Counts the N·K key values read to build the
    * packed keys in `stats.packColumnReads`; the sort's `Long` compares are
    * counted nowhere.
    */
  def sort(rows: Array[ERow], n: Int, arity: Int, stats: OvcStats,
           dedup: Boolean): Option[PackedChunk] = {
    val mins = Array.fill(arity)(Long.MaxValue)
    val maxs = Array.fill(arity)(Long.MinValue)
    var i = 0
    while (i < n) {
      val k = rows(i).key
      var j = 0
      while (j < arity) {
        val v = k(j)
        if (v < mins(j)) mins(j) = v
        if (v > maxs(j)) maxs(j) = v
        j += 1
      }
      i += 1
    }
    if ((0 until arity).exists(j => mins(j) < 0 || maxs(j) > Ovc.ValueMask)) {
      i = 0
      while (i < n) { Ovc.requireKey(rows(i).key, arity); i += 1 }
    }

    val widths = Array.tabulate(arity)(j => 64 - java.lang.Long.numberOfLeadingZeros(maxs(j) - mins(j)))
    val indexBits = 32 - Integer.numberOfLeadingZeros(n - 1)
    if (widths.sum + indexBits > 63) return None

    val shifts = new Array[Int](arity)
    val columnOfBit = new Array[Int](64)
    var shift = indexBits
    var j = arity - 1
    while (j >= 0) {
      shifts(j) = shift
      var b = shift - indexBits
      while (b < shift - indexBits + widths(j)) { columnOfBit(b) = j; b += 1 }
      shift += widths(j)
      j -= 1
    }

    val packed = new Array[Long](n)
    i = 0
    while (i < n) {
      val k = rows(i).key
      var p = i.toLong
      j = 0
      while (j < arity) { p |= (k(j) - mins(j)) << shifts(j); j += 1 }
      packed(i) = p
      i += 1
    }
    stats.packColumnReads += n.toLong * arity
    java.util.Arrays.sort(packed)
    Some(new PackedChunk(rows, packed, arity, mins, shifts, widths.map(w => (1L << w) - 1),
                         columnOfBit, indexBits, dedup))
  }
}
