package repro.ops

import org.scalatest.funsuite.AnyFunSuite

import repro.Ref
import repro.core._

/** The filter rule (§4.1) has three users: the filter, each partition of a
  * splitting shuffle, and the left side of a semi join. Keeping the same rows
  * of the same input, they emit the same keys, codes and payloads, and pass
  * a kept row through when no dropped code folds into it.
  */
class MaxFoldSpec extends AnyFunSuite {

  private def rows(out: Seq[CodedRow]) = out.map(r => (r.key.toVector, r.code, r.payload.toVector))

  private def input(seed: Int) =
    Ref.sortCoded(DataGen.randomRows(1000, 3, 4, seed, payloadArity = 1))

  for (seed <- 0 until 3; nParts <- Seq(1, 3, 8)) {
    test(s"each split partition equals the filter on its routing (nParts=$nParts, seed=$seed)") {
      val in = input(seed)
      val partOf = (r: CodedRow) => ((r.key(0) * 5 + r.key(2) * 3 + r.payload(0)) % nParts).toInt
      val parts = Shuffle.split(in.iterator, nParts, partOf)
      (0 until nParts).foreach { p =>
        assert(rows(parts(p)) == rows(FilterOp(in.iterator, partOf(_) == p).toVector), s"partition $p")
      }
    }
  }

  for (seed <- 0 until 3; nParts <- Seq(1, 3, 8)) {
    test(s"a split partition passes through each row kept with its own code (nParts=$nParts, seed=$seed)") {
      val in = input(seed)
      val partOf = (r: CodedRow) => ((r.key(0) * 5 + r.key(2) * 3 + r.payload(0)) % nParts).toInt
      val parts = Shuffle.split(in.iterator, nParts, partOf)
      var passed = 0
      (0 until nParts).foreach { p =>
        parts(p).zip(in.filter(partOf(_) == p)).foreach { case (o, r) =>
          if (o.code == r.code) { assert(o eq r); passed += 1 }
          else assert((o.key eq r.key) && (o.payload eq r.payload))
        }
      }
      assert(passed > 0)
    }
  }

  for (seed <- 0 until 3) {
    test(s"a semi join against the kept keys equals the filter on membership (seed=$seed)") {
      val in = input(seed)
      val kept = (k: Array[Long]) => (k(0) + 2 * k(1) + k(2)) % 3 == 0
      val right = DataGen.codeSorted(
        Ref.distinctSorted(in.map(r => ERow(r.key))).map(_.toArray).filter(kept))
      val joined = MergeJoinOp(in.iterator, 3, right.iterator, 3, 3, JoinType.LeftSemi,
                               new OvcStats).toVector
      val filtered = FilterOp(in.iterator, r => kept(r.key)).toVector
      assert(filtered.nonEmpty && filtered.size < in.size)
      assert(rows(joined) == rows(filtered))
    }
  }
}
