package ckpt

// Marshal serialises a checkpoint to bytes — the exact file format of
// Write, in memory, in one allocation of the file's length. The job
// server uses it for result payloads: two runs of the same
// configuration produce byte-identical marshals, so equality of Marshal
// output IS the bitwise-determinism check.
func Marshal(c *Checkpoint) ([]byte, error) {
	enc, err := writeTo(nil, c)
	if err != nil {
		return nil, err
	}
	return enc.Bytes(), nil
}
