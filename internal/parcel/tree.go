package parcel

// Aggregation-tree wire op: the transport half of the k-ary counter
// reduction overlay (internal/agas/tree). A child node folds its
// subtree into one bounded TreeDigest and ships it upward with
// tree_push; a monitor reads the root's folded view in process. The op
// is idempotent — pushes are generation-keyed (the receiver keeps only
// the newest digest per child subtree) — so the client's usual
// reconnect/retry/breaker machinery applies unchanged, which is what
// makes the overlay repairable with the existing fault plane.

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/core"
)

// ErrNoTreeNode reports a tree push to a locality that has no
// aggregation-tree node attached (SetTreeNode never called, or called
// with nil). Distinct from transport failure: the peer is up, it just
// isn't part of an overlay.
var ErrNoTreeNode = errors.New("parcel: no aggregation-tree node on this locality")

// TreeDigest is the wire form of one subtree's folded counter state:
// the per-counter digests plus the explicit freshness the parent needs
// to compose staleness — the subtree root's sample generation and fold
// time, how many localities contributed, and whether anything below
// already missed a round.
type TreeDigest struct {
	// Root is the locality id of the subtree root; Rank its position in
	// the overlay's deterministic k-ary layout.
	Root int64 `json:"root"`
	Rank int   `json:"rank"`
	// Gen is the subtree root's sample generation, incremented per fold.
	// Receivers drop digests whose generation is not newer than the one
	// they hold (push idempotency).
	Gen int64 `json:"gen"`
	// Time is when the subtree root performed this fold; parents derive
	// subtree age from it.
	Time time.Time `json:"time"`
	// Localities counts the locality samples folded in; Depth is the
	// folded subtree's height in edges.
	Localities int `json:"localities"`
	Depth      int `json:"depth"`
	// Partial reports that some subtree below missed a round: its data
	// is stale in the fold or dropped from it entirely.
	Partial bool `json:"partial,omitempty"`
	// StaleLocalities counts folded locality samples that are cached
	// last-known values rather than current readings.
	StaleLocalities int `json:"stale_localities,omitempty"`
	// Reparents sums the re-parenting repairs performed below here.
	Reparents int64 `json:"reparents,omitempty"`
	// Entries are the per-counter digests, keyed by locality-wildcarded
	// counter name, sorted by key.
	Entries []core.Digest `json:"entries"`
}

// maxTreeEntries bounds one pushed digest, mirroring the bulk
// plane's name bound: a parcel stays O(counter types), never O(fleet).
const maxTreeEntries = maxBulkNames

// codeTreeNone classifies tree pushes against a server with no attached
// tree node.
const codeTreeNone = "tree_none"

// TreeNode is the server-side delegate for tree_push — implemented by
// tree.Node.
type TreeNode interface {
	// TreePush accepts one child subtree's digest.
	TreePush(d *TreeDigest) error
}

// treeNodeHolder wraps the interface for atomic.Value (which needs a
// consistent concrete type).
type treeNodeHolder struct{ tn TreeNode }

// SetTreeNode attaches (or, with nil, detaches) the aggregation-tree
// delegate served at tree_push. Safe to call while serving.
func (s *Server) SetTreeNode(tn TreeNode) { s.treeNode.Store(treeNodeHolder{tn}) }

func (s *Server) treeNodeRef() TreeNode {
	h, _ := s.treeNode.Load().(treeNodeHolder)
	return h.tn
}

func (s *Server) treePush(req request, _ *connState) response {
	tn := s.treeNodeRef()
	if tn == nil {
		return response{Error: "parcel: no aggregation-tree node on this locality", Code: codeTreeNone}
	}
	if req.Tree == nil {
		s.meters.errors.Inc()
		return response{Error: (&ProtocolError{Reason: "tree_push without a digest"}).Error(), Code: codeProtocol}
	}
	if len(req.Tree.Entries) > maxTreeEntries {
		s.meters.errors.Inc()
		return response{Error: fmt.Sprintf("parcel: tree_push limited to %d entries", maxTreeEntries), Code: codeProtocol}
	}
	if err := tn.TreePush(req.Tree); err != nil {
		return response{Error: err.Error()}
	}
	return response{}
}

// TreePush delivers a subtree digest to the peer's tree node. Bounded
// like every parcel; idempotent, so the transport retries it across
// reconnects.
func (c *Client) TreePush(ctx context.Context, d *TreeDigest) error {
	if d == nil {
		return fmt.Errorf("parcel: nil tree digest")
	}
	if len(d.Entries) > maxTreeEntries {
		return fmt.Errorf("parcel: tree digest exceeds %d entries", maxTreeEntries)
	}
	resp, err := c.roundTripContext(ctx, request{Op: "tree_push", Tree: d})
	return treeErr(resp, err)
}

// treeErr maps a tree op's wire outcome onto the typed vocabulary.
func treeErr(resp response, err error) error {
	if err == nil {
		return nil
	}
	if resp.Code == codeTreeNone {
		return fmt.Errorf("%w: %s", ErrNoTreeNode, resp.Error)
	}
	return err
}
