package repro.ops

import repro.core.{CodedRow, OvcStats}
import repro.sort.{LoserTree, SpillOutput}

/** Order-preserving exchange (paper §4.9). */
object Shuffle {

  /** One-to-many ("splitting") shuffle: with respect to each output partition
    * the stream is a filter, so each partition's [[MaxFold]] folds the codes
    * of rows routed elsewhere (§4.1). Works for any routing function — range,
    * hash, or round-robin — since a subsequence of a sorted stream is sorted.
    * The input is read through its cursor, and each row is taken from it
    * once; a row kept with its own code is that row object itself.
    */
  def split(in: Iterator[CodedRow], nParts: Int,
            partOf: CodedRow => Int): IndexedSeq[Vector[CodedRow]] = {
    require(nParts > 0)
    val builders = Vector.fill(nParts)(Vector.newBuilder[CodedRow])
    val folds = Array.fill(nParts)(new MaxFold)
    val c = SpillOutput.cursor(in)
    while (c.move()) {
      val r = c.row()
      val p = partOf(r)
      var q = 0
      while (q < nParts) {
        if (q != p) folds(q).drop(r.code)
        q += 1
      }
      val code = folds(p).keep(r.code)
      builders(p) += (if (code == r.code) r else r.copy(code = code))
    }
    builders.map(_.result())
  }

  /** Many-to-one ("merging") shuffle: a tree-of-losers priority queue maps the
    * partitions' codes to codes in the merged output.
    */
  def merge(parts: IndexedSeq[Iterator[CodedRow]], arity: Int,
            stats: OvcStats): Iterator[CodedRow] =
    new LoserTree(parts, arity, stats)
}
