package cluster

import (
	"context"
	"errors"
	"fmt"
	"net"

	"fsdl/internal/core"
	"fsdl/internal/labelstore"
)

// The level graphs stored records are read under. A factored partition
// ships its records as its file stores them — a label's balls — and
// those read back into labels only beside the file's level-graphs
// section, which every partition of one build shares. The frontend
// fetches a section once (OpGetLevels, from the shard whose record first
// named it), checks it before any record is read under it, and keeps it
// while it routes that section's generation.

// levelSet is one section, fetched once: done closes when lv or err is
// set.
type levelSet struct {
	done chan struct{}
	lv   *labelstore.Levels
	err  error
}

// Why decodeRecords dropped a record: the index order of the
// fsdl_cluster_record_decode_failures_total samples.
const (
	causeCRC = iota
	causeLevels
	causeParse
	causeCanonicalLength
	numDecodeCauses
)

var decodeCauseNames = [numDecodeCauses]string{"crc", "levels", "parse", "canonical_length"}

// decodeRecords decodes the present records of one shard's answer:
// stored ones under the level graphs they name, canonical ones as they
// are, with their level edge lists shared through f.levels. A record that
// does not decode is left out — a corrupt copy, and another replica may
// be intact — and counted by cause. unparsable lists the stored records
// that passed their CRC and still did not decode, for condemn.
func (f *Frontend) decodeRecords(ctx context.Context, st *ringState, c *shardClient, recs map[int32]LabelRecord) (labels map[int32]*core.Label, unparsable []int32) {
	labels = make(map[int32]*core.Label, len(recs))
	for v, rec := range recs {
		if !rec.Present {
			continue
		}
		if !rec.Stored {
			f.met.recordsCanonical.Add(1)
			if l, err := f.levels.DecodeLabel(rec.Data, rec.Bits); err == nil {
				labels[v] = l
			} else {
				f.met.decodeFailures[causeParse].Add(1)
			}
			continue
		}
		f.met.recordsStored.Add(1)
		lv, err := f.levelsFor(ctx, st, c, rec.Levels)
		if err != nil {
			f.met.decodeFailures[causeLevels].Add(1)
			continue
		}
		l, err := lv.Label(v, labelstore.StoredRecord{
			Bits: rec.Bits, CRC: rec.CRC, LevelsCRC: rec.Levels.CRC, Data: rec.Data,
		})
		switch {
		case err == nil:
			labels[v] = l
		case errors.Is(err, labelstore.ErrRecordCRC):
			f.met.decodeFailures[causeCRC].Add(1)
		case errors.Is(err, labelstore.ErrLevelsMismatch):
			f.met.decodeFailures[causeLevels].Add(1)
		case errors.Is(err, labelstore.ErrCanonicalLength):
			f.met.decodeFailures[causeCanonicalLength].Add(1)
			unparsable = append(unparsable, v)
		default:
			f.met.decodeFailures[causeParse].Add(1)
			unparsable = append(unparsable, v)
		}
	}
	return labels, unparsable
}

// condemn has c read the records of ids — stored copies that passed their
// CRC and did not decode here — as canonical ones (OpGetLabelsGen). The
// shard's own read of them fails as well and condemns them there, so its
// audit reports them missing from then on; a repair hint for each wakes
// the repairer to pull them from an intact replica. The records that come
// back are not needed: the scatter that met the damage has failed over.
func (f *Frontend) condemn(ctx context.Context, st *ringState, c *shardClient, ids []int32) {
	out := make(map[int32]LabelRecord, len(ids))
	err := c.exchange(ctx, c.cfg.FetchTimeout, func(conn net.Conn) error {
		return fetchLabels(conn, "shard "+c.node.Name, OpGetLabelsGen, st.gen, ids, f.n, out)
	})
	if err != nil {
		return
	}
	for _, v := range ids {
		f.noteUnknown(v)
	}
}

// levelsFor returns the level graphs named by a stored record c sent
// for a scatter pinned to st. The record must be of st's generation: one
// of another answers a request this scatter never made. The first
// record to name a section has it fetched from the shard that sent it,
// later ones wait for that fetch; a failed fetch is forgotten, so the
// next record naming the section — from the replica the failover moves
// to — fetches it again. Only sections of the generation the frontend
// routes are kept: one a scatter pinned before a swap still needs is
// fetched for that scatter alone.
func (f *Frontend) levelsFor(ctx context.Context, st *ringState, c *shardClient, ref LevelsRef) (*labelstore.Levels, error) {
	if st.gen != 0 && ref.Generation != st.gen {
		return nil, fmt.Errorf("cluster: shard %s named level graphs of generation %d answering for %d", c.node.Name, ref.Generation, st.gen)
	}
	f.levelsMu.Lock()
	set := f.levelSets[ref]
	if set == nil {
		set = &levelSet{done: make(chan struct{})}
		// Read under levelsMu, which dropLevels takes after the swap stored
		// the new state: a set of the old generation either lands before
		// the drop, which removes it, or is never kept.
		keep := ref.Generation == f.state.Load().gen
		if keep {
			f.levelSets[ref] = set
		}
		f.levelsMu.Unlock()
		set.lv, set.err = f.fetchLevels(ctx, c, ref)
		if set.err != nil && keep {
			f.levelsMu.Lock()
			if f.levelSets[ref] == set {
				delete(f.levelSets, ref)
			}
			f.levelsMu.Unlock()
		}
		close(set.done)
		return set.lv, set.err
	}
	f.levelsMu.Unlock()
	select {
	case <-set.done:
		return set.lv, set.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// fetchLevels reads the section ref names from c, one OpGetLevels
// exchange per chunk, and admits it. The section grows by what arrives,
// never by what a length field claims.
func (f *Frontend) fetchLevels(ctx context.Context, c *shardClient, ref LevelsRef) (*labelstore.Levels, error) {
	var section []byte
	for {
		rop, resp, err := c.call(ctx, OpGetLevels, AppendLevelsRequest(nil, ref, uint64(len(section))))
		if err != nil {
			return nil, err
		}
		switch rop {
		case OpLevels:
		case OpError:
			return nil, fmt.Errorf("%w: %s", errShardError, resp)
		default:
			return nil, fmt.Errorf("cluster: unexpected level-graphs response op %d", rop)
		}
		got, total, off, chunk, err := ParseLevelsChunk(resp)
		if err != nil {
			return nil, err
		}
		if got != ref || off != uint64(len(section)) || (len(chunk) == 0 && off < total) {
			return nil, fmt.Errorf("cluster: shard %s sent %d bytes of level graphs %+v at offset %d, asked for %+v at %d",
				c.node.Name, len(chunk), got, off, ref, len(section))
		}
		section = append(section, chunk...)
		if uint64(len(section)) == total {
			break
		}
	}
	lv, err := f.admitLevels(ref, section)
	if err == nil {
		f.met.levelsFetched.Add(1)
	}
	return lv, err
}

// admitLevels checks a fetched section before any record is read under
// it: its CRC must be the one records name, then it must decode
// (labelstore.LoadLevels, in that order), span the vertex space the
// frontend routes, and carry the scheme parameters of every other
// section held for its generation.
func (f *Frontend) admitLevels(ref LevelsRef, section []byte) (*labelstore.Levels, error) {
	lv, err := labelstore.LoadLevels(section, ref.CRC)
	if err != nil {
		return nil, err
	}
	p := lv.LevelGraphs().Params()
	if p.NumVertices != f.n {
		return nil, fmt.Errorf("cluster: level graphs %08x span %d vertices, the cluster %d", ref.CRC, p.NumVertices, f.n)
	}
	f.levelsMu.Lock()
	defer f.levelsMu.Unlock()
	for other, set := range f.levelSets {
		select {
		case <-set.done:
		default:
			continue // still being fetched, or this very one
		}
		if other.Generation == ref.Generation && set.lv != nil && set.lv.LevelGraphs().Params() != p {
			return nil, fmt.Errorf("cluster: level graphs %08x and %08x of generation %d disagree on the scheme parameters", ref.CRC, other.CRC, ref.Generation)
		}
	}
	return lv, nil
}

// dropLevels forgets the sections of every generation but gen.
func (f *Frontend) dropLevels(gen uint64) {
	f.levelsMu.Lock()
	defer f.levelsMu.Unlock()
	for ref := range f.levelSets {
		if ref.Generation != gen {
			delete(f.levelSets, ref)
		}
	}
}
