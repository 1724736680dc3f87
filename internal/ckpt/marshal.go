package ckpt

import "bytes"

// Marshal serialises a checkpoint to bytes — the exact file format of
// Write, in memory. The job server uses it for result payloads: two
// runs of the same configuration produce byte-identical marshals, so
// equality of Marshal output IS the bitwise-determinism check.
func Marshal(c *Checkpoint) ([]byte, error) {
	var buf bytes.Buffer
	if err := Write(&buf, c); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}
