package memctrl

// Operational features from §VI of the paper: file-key rotation (counter
// reset under a new key). Moving an entire filesystem to a new machine is
// the module image (image.go).

import (
	"fsencr/internal/addr"
	"fsencr/internal/aesctr"
	"fsencr/internal/config"
)

// RotateFileKey re-keys one page of a file: each line's old file OTP is
// stripped and a new one (under newKey, with reset counters) applied. With
// a fresh key there is no risk in resetting the filesystem encryption
// counters — old OTPs can never recur (§VI, "Resetting Filesystem
// Encryption Counters"). The caller rotates every page of the file, then
// installs the new key via InstallKey.
func (c *Controller) RotateFileKey(now config.Cycle, pa addr.Phys, group uint32, file uint16, oldKey, newKey aesctr.Key) config.Cycle {
	if !c.mode.FileEncryption {
		return now
	}
	c.noteCycle(now)
	c.st.Inc("mc.key_rotations")
	page := pa.PageNum()
	fecb, ready := c.fetchFECB(now, page)
	old := *fecb
	fecb.Major = 0
	for i := range fecb.Minor {
		fecb.Minor[i] = 0
	}
	fecb.GroupID = group
	fecb.FileID = file
	oldEng := c.crypt.engineFor(oldKey)
	newEng := c.crypt.engineFor(newKey)
	ready = c.reencryptLines(ready, page, func(li int, oldPad, newPad *aesctr.Line) {
		oldEng.OTPInto(oldPad, fileIV(page, li, old.Major, old.Minor[li]))
		newEng.OTPInto(newPad, fileIV(page, li, fecb.Major, fecb.Minor[li]))
	})
	ready = c.touchDirtyCounter(ready, fecbAddr(page), fecbLeaf(page), c.encFECB(fecb))
	c.persistCounterNow(ready, fecbAddr(page))
	// Data ECC tags are unchanged: rotation preserves plaintext.
	return ready
}
