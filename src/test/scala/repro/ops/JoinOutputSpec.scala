package repro.ops

import org.scalatest.funsuite.AnyFunSuite

import repro.Ref
import repro.core._

/** The merge join and the lookup join code their output by the same rules:
  * on the same inputs they emit identical rows, codes included.
  */
class JoinOutputSpec extends AnyFunSuite {

  for (jt <- Seq(JoinType.Inner, JoinType.LeftSemi, JoinType.LeftAnti, JoinType.LeftOuter)) {
    test(s"merge join and lookup join emit identical rows and codes ($jt, joinLen < arity)") {
      // Arity 3 joined on 2 columns: matches carry a 1-column key suffix and
      // a 1-column payload, and an outer join extends by 2 nulls. The right
      // side lacks every prefix that starts with 2, so some left rows match
      // nothing.
      val left = Ref.sortCoded(DataGen.randomRows(600, 3, 4, seed = 50, payloadArity = 1))
      val right = Ref.sortCoded(
        DataGen.randomRows(90, 3, 4, seed = 51, payloadArity = 1).filter(_.key(0) != 2L))
      val byPrefix = right.groupBy(_.key.take(2).toVector)
      def lookup(k: Array[Long]): IndexedSeq[(Array[Long], Array[Long])] =
        byPrefix.getOrElse(k.toVector, Vector.empty).map(r => (r.key.drop(2), r.payload))
      val merged = MergeJoinOp(left.iterator, 3, right.iterator, 3, 2, jt, new OvcStats,
                               rightPayloadArity = 1).toVector
      val looked = LookupJoinOp(left.iterator, 3, 2, lookup, jt, new OvcStats,
                                nullSentinelArity = 2).toVector
      def rows(out: Vector[CodedRow]) = out.map(r => (r.key.toVector, r.code, r.payload.toVector))
      assert(merged.nonEmpty)
      assert(rows(merged) == rows(looked))
      OvcInvariants.verifyChain(merged, 3)
    }
  }
}
