package repro.ops

import org.scalatest.funsuite.AnyFunSuite

import repro.Ref
import repro.core._

/** Rows the codes prove unchanged are reused, not copied: a duplicate (code
  * 0, §4.4/§4.10) shares its predecessor's key array, and a row kept with its
  * own code by the §4.1 filter rule is the input row itself. Emitted key
  * contents, codes and payloads equal those of a reference with no sharing.
  */
class RowReuseSpec extends AnyFunSuite {

  /** Sorted keys with many duplicates: `n` rows over `domain^arity` keys. */
  private def sortedKeys(n: Int, arity: Int, domain: Int, seed: Int): Vector[Array[Long]] =
    Ref.sortCoded(DataGen.randomRows(n, arity, domain, seed)).map(_.key)

  private def distinctArrays(rows: Seq[CodedRow]): Int = {
    val seen = new java.util.IdentityHashMap[Array[Long], Unit]
    rows.foreach(r => seen.put(r.key, ()))
    seen.size
  }

  private def distinctPrefixes(keys: Seq[Array[Long]], len: Int): Int =
    keys.map(_.take(len).toVector).distinct.size

  /** Same keys, codes and payloads, element by element. */
  private def assertSameRows(got: Seq[CodedRow], want: Seq[CodedRow]): Unit = {
    assert(got.size == want.size)
    got.zip(want).zipWithIndex.foreach { case ((g, w), i) =>
      assert(g.key.sameElements(w.key), s"row $i key")
      assert(g.code == w.code, s"row $i code")
      assert(g.payload.sameElements(w.payload), s"row $i payload")
    }
  }

  private def assertSameObjects(got: Seq[CodedRow], in: Seq[CodedRow]): Unit = {
    assert(got.size == in.size)
    got.zip(in).zipWithIndex.foreach { case ((g, r), i) => assert(g eq r, s"row $i is a copy") }
  }

  test("RLE scan emits one key array per distinct key") {
    val keys = sortedKeys(5000, 3, 4, seed = 0)
    val d = distinctPrefixes(keys, 3)
    assert(d < keys.size / 10)
    val out = RleTable.fromSortedKeys(keys).scan(new OvcStats).toVector
    assert(distinctArrays(out) <= d)
    assertSameRows(out, DataGen.codeSorted(keys))
  }

  test("projection emits one key array per distinct projected prefix") {
    val in = Ref.sortCoded(DataGen.randomRows(3000, 4, 5, seed = 1, payloadArity = 1))
    for (keepLen <- 1 to 3) {
      val out = ProjectOp(in.iterator, 4, keepLen).toVector
      assert(distinctArrays(out) <= distinctPrefixes(in.map(_.key), keepLen), s"keepLen $keepLen")
      assertSameRows(out, DataGen.codeSorted(in.map(_.key.take(keepLen)), in.map(_.payload)))
    }
    assertSameObjects(ProjectOp(in.iterator, 4, 4).toVector, in)
  }

  test("filter, semi join and anti join pass kept rows through when no code folds into them") {
    val in = Ref.sortCoded(DataGen.randomRows(2000, 3, 4, seed = 2, payloadArity = 1))
    assertSameObjects(FilterOp(in.iterator, _ => true).toVector, in)
    val every = DataGen.codeSorted(Ref.distinctSorted(in.map(r => ERow(r.key))).map(_.toArray))
    assertSameObjects(
      MergeJoinOp(in.iterator, 3, every.iterator, 3, 3, JoinType.LeftSemi, new OvcStats).toVector, in)
    assertSameObjects(
      MergeJoinOp(in.iterator, 3, Iterator.empty, 3, 3, JoinType.LeftAnti, new OvcStats).toVector, in)
  }

  for (seed <- 0 until 6) {
    test(s"scan -> filter -> project -> semi join equals an unshared reference (seed=$seed)") {
      val rnd = new scala.util.Random(seed)
      val arity = 3 + rnd.nextInt(2)
      val keys = sortedKeys(4000, arity, 2 + rnd.nextInt(3), seed)
      val (a, m) = (1 + rnd.nextInt(3), 2 + rnd.nextInt(3))
      val pred = (k: Array[Long]) => (a * k(0) + k(arity - 1)) % m != 0
      val keepLen = 1 + rnd.nextInt(arity)
      val joinLen = 1 + rnd.nextInt(keepLen)
      val joinKeys = keys.map(_.take(joinLen).toVector).distinct.filter(_ => rnd.nextInt(3) > 0)
      val right = DataGen.codeSorted(joinKeys.map(_.toArray))

      val out = MergeJoinOp(
        ProjectOp(FilterOp(RleTable.fromSortedKeys(keys).scan(new OvcStats), r => pred(r.key)),
                  arity, keepLen),
        keepLen, right.iterator, joinLen, joinLen, JoinType.LeftSemi, new OvcStats).toVector

      val joinSet = joinKeys.toSet
      val want = DataGen.codeSorted(
        keys.filter(pred).map(_.take(keepLen)).filter(k => joinSet(k.take(joinLen).toVector)))
      assert(want.nonEmpty)
      assertSameRows(out, want)
      OvcInvariants.verifyChain(out, keepLen)
    }
  }
}
