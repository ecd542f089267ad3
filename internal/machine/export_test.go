package machine

// Resumes returns how many times the run resumed a thread coroutine.
func (m *Machine) Resumes() uint64 { return m.resumes }
