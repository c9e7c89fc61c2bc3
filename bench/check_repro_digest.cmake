# check_repro_digest.cmake — runs one paper-reproduction driver and checks
# that it exits 0 and that the SHA-256 of its stdout equals the driver's
# line in the digest file.
#
#   cmake -DDRIVER=<binary> -DNAME=<driver> -DDIGESTS=<repro_digests.txt> \
#         -P check_repro_digest.cmake
execute_process(COMMAND "${DRIVER}" OUTPUT_VARIABLE out RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${NAME} exited with ${rc}")
endif()

string(SHA256 got "${out}")
file(STRINGS "${DIGESTS}" lines REGEX "^${NAME} ")
string(REGEX REPLACE "^${NAME} +" "" want "${lines}")
if(NOT got STREQUAL want)
  message(FATAL_ERROR
    "${NAME}: the SHA-256 of its stdout is ${got}, but ${DIGESTS} pins "
    "'${want}'.  If this change to the driver's output is intended, "
    "regenerate its line (the digest is that of `${NAME} | sha256sum`):\n"
    "${NAME} ${got}")
endif()
