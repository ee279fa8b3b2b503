package nbody

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"

	"nbody/internal/fileio"
	"nbody/internal/metrics"
)

// Snapshot format, version 1. A checkpoint is a self-describing binary
// record (all integers and float bit patterns little-endian):
//
//	offset  size       field
//	0       8          magic "NBODYCKP"
//	8       4          version (uint32, currently 1)
//	12      8          payload length in bytes (uint64)
//	20      len        payload (below)
//	20+len  4          CRC32C (Castagnoli) of the payload
//
// payload, for n particles (length = 32 + 56n):
//
//	0       8          n (uint64)
//	8       8          completed steps (uint64)
//	16      8          simulation time (float64 bits)
//	24      8          timestep DT (float64 bits)
//	32      24n        positions (x, y, z float64 bits per particle)
//	32+24n  24n        velocities (x, y, z float64 bits per particle)
//	32+48n  8n         charges (float64 bits per particle)
//
// Version rules: the magic never changes; readers reject any version they
// do not know with ErrCorruptCheckpoint rather than guessing. A future
// layout change bumps the version and keeps decoding of all prior
// versions. The payload length is written redundantly with n so torn or
// forged records fail structural validation before any field is trusted,
// and the trailing CRC32C catches bit rot that structure cannot.
var checkpointMagic = [8]byte{'N', 'B', 'O', 'D', 'Y', 'C', 'K', 'P'}

const (
	checkpointVersion  = 1
	ckPayloadFixed     = 32    // n, step, time, dt
	ckBytesPerParticle = 7 * 8 // 3 position + 3 velocity + 1 charge floats
	ckHeaderLen        = 8 + 4 + 8
)

var ckCRCTable = crc32.MakeTable(crc32.Castagnoli)

// corruptf wraps ErrCorruptCheckpoint with detail.
func corruptf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrCorruptCheckpoint, fmt.Sprintf(format, args...))
}

// Checkpoint writes a versioned, checksummed snapshot of the simulation's
// full restartable state — positions, velocities, charges, time, step
// count, and timestep — to w. The accelerations are deliberately not
// stored: they are a deterministic function of the positions, and
// ResumeSimulation recomputes them bitwise-identically, so checkpoint →
// resume → Step reproduces the uninterrupted trajectory exactly (given an
// equivalently configured solver).
func (s *Simulation) Checkpoint(w io.Writer) error {
	n := s.System.Len()
	le := binary.LittleEndian
	payload := make([]byte, ckPayloadFixed+n*ckBytesPerParticle)
	le.PutUint64(payload[0:], uint64(n))
	le.PutUint64(payload[8:], uint64(s.step))
	le.PutUint64(payload[16:], math.Float64bits(s.time))
	le.PutUint64(payload[24:], math.Float64bits(s.DT))
	off := ckPayloadFixed
	for _, p := range s.System.Positions {
		le.PutUint64(payload[off:], math.Float64bits(p.X))
		le.PutUint64(payload[off+8:], math.Float64bits(p.Y))
		le.PutUint64(payload[off+16:], math.Float64bits(p.Z))
		off += 24
	}
	for _, v := range s.Velocities {
		le.PutUint64(payload[off:], math.Float64bits(v.X))
		le.PutUint64(payload[off+8:], math.Float64bits(v.Y))
		le.PutUint64(payload[off+16:], math.Float64bits(v.Z))
		off += 24
	}
	for _, q := range s.System.Charges {
		le.PutUint64(payload[off:], math.Float64bits(q))
		off += 8
	}

	var hdr [ckHeaderLen]byte
	copy(hdr[:8], checkpointMagic[:])
	le.PutUint32(hdr[8:], checkpointVersion)
	le.PutUint64(hdr[12:], uint64(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return fmt.Errorf("nbody: write checkpoint: %w", err)
	}
	if _, err := w.Write(payload); err != nil {
		return fmt.Errorf("nbody: write checkpoint: %w", err)
	}
	var crc [4]byte
	le.PutUint32(crc[:], crc32.Checksum(payload, ckCRCTable))
	if _, err := w.Write(crc[:]); err != nil {
		return fmt.Errorf("nbody: write checkpoint: %w", err)
	}
	metrics.AddCheckpoints(1)
	return nil
}

// CheckpointFile writes the snapshot to path atomically: into a temporary
// file in the same directory, fsynced, then renamed over path. A crash at
// any point leaves either the previous snapshot or the new one — never a
// readable-but-torn file.
func (s *Simulation) CheckpointFile(path string) error {
	return fileio.WriteAtomic(path, "nbody: checkpoint", s.Checkpoint)
}

// CheckpointState is the decoded restartable content of one checkpoint
// record: everything Checkpoint wrote, with structure and checksum already
// validated. It separates parsing from resumption so callers that only
// need to inspect a snapshot — the serve layer validating a resume token,
// the gateway reading the step a stream died at — can do so without
// building a solver.
type CheckpointState struct {
	Step       int
	Time       float64
	DT         float64
	Positions  []Vec3
	Velocities []Vec3
	Charges    []float64
}

// Len returns the particle count.
func (st *CheckpointState) Len() int { return len(st.Positions) }

// DecodeCheckpoint parses and validates one snapshot record from r. Any
// structural damage — bad magic, unknown version, truncation, inconsistent
// lengths, checksum mismatch, non-finite time or non-positive timestep —
// is reported with ErrCorruptCheckpoint; corrupt input never panics and
// never yields a silently wrong state.
func DecodeCheckpoint(r io.Reader) (*CheckpointState, error) {
	le := binary.LittleEndian
	var hdr [ckHeaderLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, corruptf("truncated header (%v)", err)
	}
	if [8]byte(hdr[:8]) != checkpointMagic {
		return nil, corruptf("bad magic %q", hdr[:8])
	}
	if v := le.Uint32(hdr[8:]); v != checkpointVersion {
		return nil, corruptf("unsupported version %d (want %d)", v, checkpointVersion)
	}
	plen := le.Uint64(hdr[12:])
	if plen < ckPayloadFixed || (plen-ckPayloadFixed)%ckBytesPerParticle != 0 {
		return nil, corruptf("implausible payload length %d", plen)
	}
	payload, err := fileio.ReadFullLimited(r, plen)
	if err != nil {
		return nil, corruptf("truncated payload (%v)", err)
	}
	var crcBuf [4]byte
	if _, err := io.ReadFull(r, crcBuf[:]); err != nil {
		return nil, corruptf("truncated checksum (%v)", err)
	}
	if got, want := crc32.Checksum(payload, ckCRCTable), le.Uint32(crcBuf[:]); got != want {
		return nil, corruptf("checksum mismatch (computed %08x, stored %08x)", got, want)
	}

	nParticles := (plen - ckPayloadFixed) / ckBytesPerParticle
	if n := le.Uint64(payload[0:]); n != nParticles {
		return nil, corruptf("particle count %d inconsistent with payload length %d", n, plen)
	}
	step := le.Uint64(payload[8:])
	if step > math.MaxInt64 {
		return nil, corruptf("implausible step count %d", step)
	}
	simTime := math.Float64frombits(le.Uint64(payload[16:]))
	dt := math.Float64frombits(le.Uint64(payload[24:]))
	if !finite(simTime) {
		return nil, corruptf("non-finite simulation time")
	}
	if !finite(dt) || dt <= 0 {
		return nil, corruptf("non-positive timestep %g", dt)
	}

	n := int(nParticles)
	pos := make([]Vec3, n)
	vel := make([]Vec3, n)
	q := make([]float64, n)
	off := ckPayloadFixed
	for i := range pos {
		pos[i] = Vec3{
			X: math.Float64frombits(le.Uint64(payload[off:])),
			Y: math.Float64frombits(le.Uint64(payload[off+8:])),
			Z: math.Float64frombits(le.Uint64(payload[off+16:])),
		}
		off += 24
	}
	for i := range vel {
		vel[i] = Vec3{
			X: math.Float64frombits(le.Uint64(payload[off:])),
			Y: math.Float64frombits(le.Uint64(payload[off+8:])),
			Z: math.Float64frombits(le.Uint64(payload[off+16:])),
		}
		off += 24
	}
	for i := range q {
		q[i] = math.Float64frombits(le.Uint64(payload[off:]))
		off += 8
	}

	return &CheckpointState{
		Step:       int(step),
		Time:       simTime,
		DT:         dt,
		Positions:  pos,
		Velocities: vel,
		Charges:    q,
	}, nil
}

// ResumeSimulationState rebuilds a Simulation from a decoded checkpoint,
// running it on solver (which must be configured compatibly with the
// original — same domain box and accuracy — for the resumed trajectory to
// continue bitwise). The accelerations are recomputed deterministically
// from the positions, so resume → Step reproduces the uninterrupted
// trajectory exactly. The state's slices are adopted, not copied.
func ResumeSimulationState(st *CheckpointState, solver Accelerator) (*Simulation, error) {
	n := st.Len()
	sim := &Simulation{
		System:     &System{Positions: st.Positions, Charges: st.Charges},
		Velocities: st.Velocities,
		Solver:     solver,
		DT:         st.DT,
		time:       st.Time,
		step:       st.Step,
	}
	sim.into, _ = solver.(AcceleratorInto)
	sim.phi = make([]float64, n)
	sim.acc = make([]Vec3, n)
	if err := sim.solve(); err != nil {
		return nil, fmt.Errorf("nbody: resume: initial solve: %w", err)
	}
	metrics.AddResumes(1)
	return sim, nil
}

// ResumeSimulation rebuilds a Simulation from a snapshot written by
// Checkpoint: DecodeCheckpoint composed with ResumeSimulationState.
func ResumeSimulation(r io.Reader, solver Accelerator) (*Simulation, error) {
	st, err := DecodeCheckpoint(r)
	if err != nil {
		return nil, err
	}
	return ResumeSimulationState(st, solver)
}

// ResumeSimulationFile is ResumeSimulation over a snapshot file written by
// CheckpointFile.
func ResumeSimulationFile(path string, solver Accelerator) (*Simulation, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("nbody: resume %s: %w", path, err)
	}
	defer f.Close()
	sim, err := ResumeSimulation(bufio.NewReader(f), solver)
	if err != nil {
		return nil, fmt.Errorf("resume %s: %w", path, err)
	}
	return sim, nil
}
