// Package rtree implements the depth-balanced R-tree used by the offline
// synopsis-management module (ARCHITECTURE.md § Offline dataflow:
// synopsis management, paper §2.2). It supports dynamic insertion
// (Guttman, quadratic split), deletion with tree condensation, STR bulk
// loading and — the operation the synopsis builder relies on — a cut of
// the tree into node groups together with the data-point IDs below each
// node (CutToTarget).
package rtree
