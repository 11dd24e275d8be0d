package httpapi

// The wire layer's cluster surface: shard-ownership enforcement on the
// write plane (the wrong_shard protocol error), the manifest self-serve
// route, the raw-scores scatter endpoint, and the opt-in admin promote
// route. Everything here is inert on a node running outside a cluster
// (Config.Cluster nil) except promote, which is gated by its own flag.

import (
	"net/http"

	"hdcirc/internal/hashring"
)

// wrongShardError builds the misrouted-write rejection: the shard-tier
// analogue of notPrimaryError, naming the offending key and carrying the
// owning shard's endpoints so the client reroutes instead of retrying.
func (a *API) wrongShardError(key string, owner int) *Error {
	node := a.cfg.Cluster
	e := Errorf(CodeWrongShard, "key %q belongs to shard %d, this node serves shard %d of %d",
		key, owner, node.Shard, node.NumShards())
	ep := node.Endpoints(owner)
	o := owner
	e.OwnerShard = &o
	e.OwnerPrimaryURL = ep.Primary
	if len(ep.Replicas) > 0 {
		e.OwnerReplicaURLs = append([]string(nil), ep.Replicas...)
	}
	return e
}

// checkSampleOwnership validates one labeled sample's class key against
// this node's shard; nil outside a cluster.
func (a *API) checkSampleOwnership(label int) *Error {
	node := a.cfg.Cluster
	if node == nil {
		return nil
	}
	if owner := node.ShardForClass(label); owner != node.Shard {
		return a.wrongShardError(hashring.ClassKey(label), owner)
	}
	return nil
}

// checkSymbolOwnership validates one item symbol's key the same way.
func (a *API) checkSymbolOwnership(symbol string) *Error {
	node := a.cfg.Cluster
	if node == nil {
		return nil
	}
	if owner := node.ShardForItem(symbol); owner != node.Shard {
		return a.wrongShardError(hashring.ItemKey(symbol), owner)
	}
	return nil
}

// checkBatchOwnership validates a whole unary write batch BEFORE any of
// it is applied, so wrong_shard always means "nothing happened".
func (a *API) checkBatchOwnership(samples []Sample, symbols []string) *Error {
	if a.cfg.Cluster == nil {
		return nil
	}
	for _, s := range samples {
		if e := a.checkSampleOwnership(s.Label); e != nil {
			return e
		}
	}
	for _, sym := range symbols {
		if e := a.checkSymbolOwnership(sym); e != nil {
			return e
		}
	}
	return nil
}

// checkRowOwnership validates one ingest-stream row before it is
// buffered; a misrouted row terminates the stream in band, with every
// earlier acked batch standing and nothing after the last ack applied.
func (a *API) checkRowOwnership(row *IngestRow) *Error {
	if a.cfg.Cluster == nil {
		return nil
	}
	if row.Label != nil {
		if e := a.checkSampleOwnership(*row.Label); e != nil {
			return e
		}
	}
	if row.Symbol != "" {
		if e := a.checkSymbolOwnership(row.Symbol); e != nil {
			return e
		}
	}
	return nil
}

// handleScores is the scatter half of cross-process scatter-gather
// predict: raw per-class integer Hamming distances against one
// consistent snapshot. Integer distances merge exactly across shards
// (the float64 distances Predict returns would not), which is what makes
// a cluster client's merged prediction bit-identical to an unsharded
// model. Served by every node — shard clients fan it out to one endpoint
// per shard group, honoring read preference.
func (a *API) handleScores(w http.ResponseWriter, r *http.Request) {
	if !requireMethod(w, r, http.MethodPost) {
		return
	}
	var req ScoresRequest
	if e := a.decodeBody(w, r, &req); e != nil {
		writeError(w, e)
		return
	}
	if len(req.Queries) == 0 {
		writeError(w, Errorf(CodeInvalidRequest, "no queries"))
		return
	}
	ctx, cancel := a.readCtx(r)
	defer cancel()
	g := a.admission()
	if e := g.acquire(ctx); e != nil {
		writeError(w, e)
		return
	}
	defer g.release()
	if err := ctx.Err(); err != nil {
		writeError(w, Errorf(CodeDeadlineExceeded, "%v", err))
		return
	}
	srv := a.cfg.Server
	hvs, e := encodeRecords(a.cfg.Encoder, srv.Pool(), req.Queries)
	if e != nil {
		writeError(w, e)
		return
	}
	snap := srv.Snapshot()
	dists := make([][]int, len(hvs))
	srv.Pool().ForEach(len(hvs), func(i int) {
		dists[i] = snap.RawScores(hvs[i])
	})
	srv.CountReads(len(hvs))
	writeJSON(w, http.StatusOK, ScoresResponse{
		Version:   snap.Version(),
		Dim:       snap.Dim(),
		Classes:   snap.Classes(),
		Distances: dists,
	})
}

// handleCluster serves the manifest this node was booted with, so any
// single endpoint can bootstrap or refresh a cluster client. 404 outside
// a cluster — the probe a client uses to tell the two worlds apart.
func (a *API) handleCluster(w http.ResponseWriter, r *http.Request) {
	if !requireMethod(w, r, http.MethodGet) {
		return
	}
	node := a.cfg.Cluster
	if node == nil {
		writeError(w, Errorf(CodeNotFound, "this node is not part of a sharded cluster"))
		return
	}
	m := node.Manifest()
	resp := ClusterResponse{
		ManifestVersion: m.Version,
		RingPositions:   m.RingPositions,
		RingDim:         m.RingDim,
		RingSeed:        m.RingSeed,
		Shard:           node.Shard,
	}
	for _, s := range m.Shards {
		resp.Shards = append(resp.Shards, ClusterShard{
			Primary:  s.Primary,
			Replicas: append([]string(nil), s.Replicas...),
		})
	}
	writeJSON(w, http.StatusOK, resp)
}

// handlePromote flips this node to primary on operator request. Like the
// snapshot route it is deliberately ungated: failover is exactly the
// moment request traffic may have the gate saturated. The route answers
// 404 unless the operator opted in with Config.EnableAdmin, so a node
// not meant to be operated this way cannot be promoted by a stray POST.
func (a *API) handlePromote(w http.ResponseWriter, r *http.Request) {
	if !a.cfg.EnableAdmin {
		writeError(w, Errorf(CodeNotFound, "admin routes are not enabled on this node"))
		return
	}
	if !requireMethod(w, r, http.MethodPost) {
		return
	}
	promote := a.cfg.PromoteFunc
	if promote == nil {
		promote = a.cfg.Server.Promote
	}
	if err := promote(); err != nil {
		writeError(w, a.applyError(err))
		return
	}
	writeJSON(w, http.StatusOK, PromoteResponse{
		Role:    a.cfg.Server.Role().String(),
		Version: a.cfg.Server.Snapshot().Version(),
	})
}
